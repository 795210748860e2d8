"""Corpus data model, bracket markup, catalogs, and grammar sampling."""

import random

import pytest

from mtnlu.corpus import (
    Catalog,
    CatalogEntry,
    GrammarTemplate,
    SlotSpan,
    Utterance,
    load_catalog,
    load_corpus,
    load_grammar,
    make_span,
    parse_annotated_line,
    sample_grammar,
    save_corpus,
    serialize_utterance,
)
from mtnlu.errors import ConfigError, FormatError
from mtnlu.semer import read_semer_report
from mtnlu.translate import load_phrase_table, load_translations


class TestParse:
    def test_two_slot_line(self):
        line = (
            "u1\tMusic\tPlayMusic\t"
            "play [we are the champions](SongName) by [queen](ArtistName)"
        )
        u = parse_annotated_line(line, language="en")
        assert u.id == "u1"
        assert u.domain == "Music"
        assert u.intent == "PlayMusic"
        assert u.language == "en"
        assert u.tokens == ("play", "we", "are", "the", "champions", "by", "queen")
        assert u.slots == (
            SlotSpan("SongName", 1, 5, "we are the champions"),
            SlotSpan("ArtistName", 6, 7, "queen"),
        )

    def test_single_token_no_slots(self):
        u = parse_annotated_line("u2\tGlobal\tResume\tweiter")
        assert u.tokens == ("weiter",)
        assert u.slots == ()

    def test_adjacent_slots(self):
        u = parse_annotated_line("u3\tD\tI\t[a](X) [b](Y)")
        assert u.slots == (SlotSpan("X", 0, 1, "a"), SlotSpan("Y", 1, 2, "b"))

    @pytest.mark.parametrize(
        "markup",
        [
            "play [we are the champions(SongName)",  # unclosed bracket
            "play [we [are] the](SongName)",  # nested
            "play [](SongName)",  # empty span
            "play [   ](SongName)",  # empty span, whitespace only
            "play [songs]",  # missing slot type
            "play [songs](",  # unterminated slot type
            "stray ] bracket",
        ],
    )
    def test_malformed_markup(self, markup):
        with pytest.raises(FormatError):
            parse_annotated_line("u1\tD\tI\t" + markup)

    def test_wrong_field_count(self):
        with pytest.raises(FormatError) as err:
            parse_annotated_line("u1\tMusic\tplay song", line_no=7)
        assert err.value.line_no == 7

    def test_empty_fields_rejected(self):
        with pytest.raises(FormatError):
            parse_annotated_line("u1\t\tIntent\thello")


class TestSerialize:
    def test_no_slots_joins_tokens(self):
        u = Utterance("u9", "", "D", "I", ("turn", "it", "up"))
        assert serialize_utterance(u) == "u9\tD\tI\tturn it up"

    def test_round_trip_exact_line(self):
        line = (
            "u1\tMusic\tPlayMusic\t"
            "play [we are the champions](SongName) by [queen](ArtistName)"
        )
        u = parse_annotated_line(line)
        assert serialize_utterance(u) == line

    def test_round_trip_random_utterances(self):
        # parse(serialize(u)) == u over randomly built valid utterances
        rng = random.Random(42)
        words = ["alpha", "beta", "gamma", "delta", "x1", "y2", "z%", "q.q"]
        types = ["City", "Time", "SongName"]
        for case in range(300):
            n = rng.randint(1, 10)
            tokens = tuple(rng.choice(words) for _ in range(n))
            slots = []
            i = 0
            while i < n:
                if rng.random() < 0.4:
                    j = min(n, i + rng.randint(1, 3))
                    slots.append(make_span(tokens, rng.choice(types), i, j))
                    i = j
                else:
                    i += 1
            u = Utterance("u%d" % case, "xx", "Dom", "Int", tokens, tuple(slots))
            again = parse_annotated_line(serialize_utterance(u), language="xx")
            assert again == u, "round trip failed for %r" % (u,)


class TestUtteranceInvariants:
    def test_overlapping_slots_rejected(self):
        tokens = ("a", "b", "c")
        with pytest.raises(ValueError):
            Utterance(
                "u1", "", "D", "I", tokens,
                (make_span(tokens, "X", 0, 2), make_span(tokens, "Y", 1, 3)),
            )

    def test_unsorted_slots_rejected(self):
        tokens = ("a", "b", "c")
        with pytest.raises(ValueError):
            Utterance(
                "u1", "", "D", "I", tokens,
                (make_span(tokens, "X", 2, 3), make_span(tokens, "Y", 0, 1)),
            )

    def test_out_of_range_slot_rejected(self):
        with pytest.raises(ValueError):
            Utterance("u1", "", "D", "I", ("a",), (SlotSpan("X", 0, 2, "a b"),))

    def test_value_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Utterance("u1", "", "D", "I", ("a", "b"), (SlotSpan("X", 0, 1, "b"),))

    def test_whitespace_token_rejected(self):
        with pytest.raises(ValueError):
            Utterance("u1", "", "D", "I", ("a b",))

    def test_empty_token_list_rejected(self):
        with pytest.raises(ValueError):
            Utterance("u1", "", "D", "I", ())

    def test_bracket_token_rejected(self):
        with pytest.raises(ValueError):
            Utterance("u1", "", "D", "I", ("a[b",))


class TestCorpusFiles:
    def test_load_save_round_trip(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(
            "# a comment\n"
            "u1\tMusic\tPlayMusic\tplay [abba](ArtistName)\n"
            "\n"
            "u2\tGlobal\tResume\tweiter\n",
            encoding="utf-8",
        )
        corpus = load_corpus(path, language="de")
        assert [u.id for u in corpus] == ["u1", "u2"]
        out = tmp_path / "out.tsv"
        save_corpus(corpus, out)
        assert load_corpus(out, language="de") == corpus

    def test_save_is_deterministic(self, tmp_path):
        corpus = [
            Utterance("u1", "", "D", "I", ("a", "b"), (SlotSpan("X", 0, 1, "a"),)),
            Utterance("u2", "", "D", "J", ("c",)),
        ]
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        save_corpus(corpus, p1)
        save_corpus(corpus, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("u1\tD\tI\ta\nu1\tD\tI\tb\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_corpus(path)

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("u1\tD\tI\ta\nu2\tD\tI\t[x](\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_corpus(path)
        assert err.value.line_no == 2


# (loader, first line, a valid data line); the first line is a comment, or
# the header a catalog needs
LINE_FORMATS = [
    (load_corpus, "# corpus", "u1\tD\tI\tplay [x](T)"),
    (load_catalog, "#slot_type=City", "new york\t2"),
    (load_grammar, "# grammar", "I\tD\t1\tplay {T}"),
    (load_phrase_table, "# phrases", "a b ||| c ||| -1"),
    (load_translations, "# translations", "u1\tc\t0-0\t0\t0\t0\t0\t0"),
    (read_semer_report,
     "segment\tname\treference_count\tintent_errors\tsubstitutions\tdeletions"
     "\tinsertions\terrors\tsemer",
     "overall\t-\t2\t1\t0\t0\t0\t1\t0.5000"),
]


@pytest.mark.parametrize("loader, first, line", LINE_FORMATS,
                         ids=[f[0].__name__ for f in LINE_FORMATS])
def test_bad_utf8_names_file_and_line(tmp_path, loader, first, line):
    path = tmp_path / "data.txt"
    # \r\n, \r and \n each end one line, as open() splits them
    head = (first + "\r\n\r" + line + "\n").encode("utf-8")
    path.write_bytes(head)
    assert loader(path)
    path.write_bytes(head + line[0].encode("utf-8") + b"\xff" + line[1:].encode("utf-8"))
    with pytest.raises(FormatError, match="byte 0xff is not UTF-8") as err:
        loader(path)
    assert (err.value.path, err.value.line_no) == (path, 4)


@pytest.mark.parametrize("loader, first, line", LINE_FORMATS,
                         ids=[f[0].__name__ for f in LINE_FORMATS])
def test_byte_order_mark_is_dropped(tmp_path, loader, first, line):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    text = "%s\n%s\n" % (first, line)
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    assert loader(marked) == loader(plain)
    # formats without a header: the mark can stand right before a data line
    if first.startswith("# "):
        marked.write_text(line + "\n", encoding="utf-8-sig")
        assert loader(marked) == loader(plain)


@pytest.mark.parametrize("loader, first, line", LINE_FORMATS,
                         ids=[f[0].__name__ for f in LINE_FORMATS])
def test_wrong_field_count_names_file_and_line(tmp_path, loader, first, line):
    sep = "|||" if "|||" in line else "\t"
    width = len(line.split(sep))
    kind = "'|||'" if sep == "|||" else "tab"
    path = tmp_path / "data.txt"
    path.write_text("%s\n%s\n\n%s%sx\n" % (first, line, line, sep), encoding="utf-8")
    with pytest.raises(FormatError) as err:
        loader(path)
    assert (err.value.path, err.value.line_no) == (path, 4)
    assert err.value.message.endswith("%s-separated fields, got %d" % (kind, width + 1))


# (loader, first line, a valid data line, a line with a number that is not
# finite, the message for it)
NON_FINITE = [
    (load_grammar, "# grammar", "I\tD\t1\tplay {T}", "I\tD\tinf\tplay {T}",
     "bad weight 'inf': not a finite number"),
    (load_phrase_table, "# phrases", "a b ||| c ||| -1", "a b ||| c ||| nan",
     "bad score 'nan': not a finite number"),
    (load_translations, "# translations", "u1\tc\t0-0\t0\t0\t0\t0\t0",
     "u2\tc\t0-0\t0\t0\t0\t-Infinity\tnan", "bad score field '-Infinity': not a finite number"),
]


@pytest.mark.parametrize("loader, first, line, bad, message", NON_FINITE,
                         ids=[f[0].__name__ for f in NON_FINITE])
def test_non_finite_number_names_file_and_line(tmp_path, loader, first, line, bad, message):
    path = tmp_path / "data.txt"
    path.write_text("%s\n%s\n%s\n" % (first, line, bad), encoding="utf-8")
    with pytest.raises(FormatError) as err:
        loader(path)
    assert (err.value.path, err.value.line_no, err.value.message) == (path, 3, message)


class TestCatalog:
    def test_byte_order_mark_before_the_header(self, tmp_path):
        path = tmp_path / "city.txt"
        path.write_text("#slot_type=City\nberlin\n", encoding="utf-8-sig")
        assert load_catalog(path).slot_type == "City"

    def test_load_with_weights(self, tmp_path):
        path = tmp_path / "city.txt"
        path.write_text(
            "#slot_type=City\nnew york\t7.0\nberlin\t3.5\nsan francisco\n",
            encoding="utf-8",
        )
        c = load_catalog(path)
        assert c.slot_type == "City"
        assert [(e.tokens, e.weight) for e in c.entries] == [
            (("new", "york"), 7.0),
            (("berlin",), 3.5),
            (("san", "francisco"), 1.0),
        ]

    def test_entries_lowercased(self):
        c = Catalog("City", (CatalogEntry(("New", "York"), 1.0),))
        assert c.entries[0].tokens == ("new", "york")

    def test_negative_weight_rejected(self, tmp_path):
        path = tmp_path / "city.txt"
        path.write_text("#slot_type=City\nberlin\t-1\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_catalog(path)

    @pytest.mark.parametrize("weight", ["inf", "Infinity", "nan"])
    def test_non_finite_weight_names_file_and_line(self, tmp_path, weight):
        path = tmp_path / "city.txt"
        path.write_text("#slot_type=City\nparis\nberlin\t%s\n" % weight, encoding="utf-8")
        with pytest.raises(FormatError, match="finite") as info:
            load_catalog(path)
        assert (info.value.path, info.value.line_no) == (path, 3)

    def test_infinite_entry_weight_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            CatalogEntry(("berlin",), float("inf"))

    def test_empty_catalog_rejected(self, tmp_path):
        path = tmp_path / "city.txt"
        path.write_text("#slot_type=City\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_catalog(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "city.txt"
        path.write_text("berlin\t1\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_catalog(path)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            Catalog("City", (CatalogEntry(("berlin",), 0.0),))

    @pytest.mark.parametrize("weights", [
        (3.0, 1.0, 0.0, 2.0, 0.5),   # a zero-weight entry is never drawn
        (0.0, 0.0, 1.0, 0.0),
        (0.25,),                     # one entry
        tuple(float(w % 7) for w in range(1, 200)),
    ], ids=["mixed", "mostly-zero", "one-entry", "long"])
    def test_draw_is_the_weighted_choice(self, weights):
        c = Catalog("City", tuple(CatalogEntry(("v%d" % i,), w) for i, w in enumerate(weights)))
        for seed in range(200):
            rng = random.Random(seed)
            clone = random.Random()
            clone.setstate(rng.getstate())
            drawn = [c.draw(rng) for _ in range(5)]
            assert drawn == [clone.choices(c.entries, weights=[e.weight for e in c.entries])[0]
                             for _ in range(5)]
            assert rng.getstate() == clone.getstate()
            assert all(e.weight > 0 for e in drawn)


class TestGrammar:
    def test_load(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text(
            "# templates\n"
            "PlayMusic\tMusic\t2.0\tplay {SongName} by {ArtistName}\n"
            "GetWeather\tWeather\t1.0\thow is the weather in {City}\n",
            encoding="utf-8",
        )
        templates = load_grammar(path)
        assert len(templates) == 2
        assert templates[0].placeholders == ("SongName", "ArtistName")
        assert templates[1].pattern[-1] == "{City}"

    def test_non_positive_weight_rejected(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("I\tD\t0\thello\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_grammar(path)


class TestSampleGrammar:
    CATALOGS = {
        "City": Catalog("City", (CatalogEntry(("berlin",), 1.0),)),
    }

    def test_degenerate_single_template(self):
        templates = [GrammarTemplate("GetWeather", "Weather", ("weather", "in", "{City}"), 1.0)]
        out = sample_grammar(templates, self.CATALOGS, 3, seed=5)
        assert len(out) == 3
        assert {u.id for u in out} == {"g000000", "g000001", "g000002"}
        for u in out:
            assert u.tokens == ("weather", "in", "berlin")
            assert u.slots == (SlotSpan("City", 2, 3, "berlin"),)
            assert u.intent == "GetWeather"

    def test_template_frequency_follows_weights(self):
        templates = [
            GrammarTemplate("A", "D", ("a",), 1.0),
            GrammarTemplate("B", "D", ("b",), 1.0),
        ]
        out = sample_grammar(templates, {}, 10000, seed=99)
        frac_a = sum(u.intent == "A" for u in out) / len(out)
        assert abs(frac_a - 0.5) < 0.02

    def test_n_zero(self):
        assert sample_grammar([], {}, 0, seed=1) == []

    def test_unresolvable_placeholder(self):
        templates = [GrammarTemplate("I", "D", ("{Unknown}",), 1.0)]
        with pytest.raises(ConfigError):
            sample_grammar(templates, self.CATALOGS, 1, seed=1)

    def test_same_seed_identical_output(self, tmp_path):
        templates = [
            GrammarTemplate("A", "D", ("go", "to", "{City}"), 1.0),
            GrammarTemplate("B", "D", ("stay",), 2.0),
        ]
        a = sample_grammar(templates, self.CATALOGS, 200, seed=7)
        b = sample_grammar(templates, self.CATALOGS, 200, seed=7)
        assert a == b
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        save_corpus(a, p1)
        save_corpus(b, p2)
        assert p1.read_bytes() == p2.read_bytes()
