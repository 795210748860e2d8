"""Corpus data model, bracket markup, catalogs, and grammar sampling."""

import random
import re
import sys

import pytest

from mtnlu.corpus import (
    Catalog,
    CatalogEntry,
    GrammarTemplate,
    SlotSpan,
    Utterance,
    load_catalog,
    load_catalogs,
    load_corpus,
    load_grammar,
    make_span,
    parse_annotated_line,
    sample_grammar,
    save_corpus,
    serialize_utterance,
)
from mtnlu.errors import ConfigError, FormatError
from mtnlu.nlu import CrfModel, TrainingConfig, train_slot_tagger
from mtnlu.semer import read_semer_report
from mtnlu.translate import load_phrase_table, load_translations


class TestParse:
    def test_two_slot_line(self):
        line = (
            "u1\tMusic\tPlayMusic\t"
            "play [we are the champions](SongName) by [queen](ArtistName)"
        )
        u = parse_annotated_line(line)
        assert u.id == "u1"
        assert u.domain == "Music"
        assert u.intent == "PlayMusic"
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

    def test_a_token_may_touch_a_slot(self):
        u = parse_annotated_line("u1\tD\tI\ta[b](X)c")
        assert u.tokens == ("a", "b", "c")
        assert u.slots == (SlotSpan("X", 1, 2, "b"),)

    @pytest.mark.parametrize(
        "markup, message",
        [
            ("play [we are the champions(SongName)",  # unclosed bracket
             "'[' at character 6 is not [value](SlotType) markup"),
            ("play [we [are] the](SongName)",  # nested
             "'[' at character 6 is not [value](SlotType) markup"),
            ("play [](SongName)", "empty slot span"),
            ("play [   ](SongName)", "empty slot span"),  # whitespace only
            ("play [songs]",  # missing slot type
             "'[' at character 6 is not [value](SlotType) markup"),
            ("play [songs](",  # unterminated slot type
             "'[' at character 6 is not [value](SlotType) markup"),
            ("play [songs] (X)",  # space before the slot type
             "'[' at character 6 is not [value](SlotType) markup"),
            ("play [songs]()", "invalid slot type: ''"),
            ("stray ] bracket", "']' at character 7 is not [value](SlotType) markup"),
            ("   ", "utterance u1 has no tokens"),
        ],
    )
    def test_malformed_markup(self, markup, message):
        with pytest.raises(FormatError, match=re.escape(message)):
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
        u = Utterance("u9", "D", "I", ("turn", "it", "up"))
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
            u = Utterance("u%d" % case, "Dom", "Int", tokens, tuple(slots))
            again = parse_annotated_line(serialize_utterance(u))
            assert again == u, "round trip failed for %r" % (u,)


class TestUtteranceInvariants:
    def test_overlapping_slots_rejected(self):
        tokens = ("a", "b", "c")
        with pytest.raises(ValueError):
            Utterance(
                "u1", "D", "I", tokens,
                (make_span(tokens, "X", 0, 2), make_span(tokens, "Y", 1, 3)),
            )

    def test_unsorted_slots_rejected(self):
        tokens = ("a", "b", "c")
        with pytest.raises(ValueError):
            Utterance(
                "u1", "D", "I", tokens,
                (make_span(tokens, "X", 2, 3), make_span(tokens, "Y", 0, 1)),
            )

    def test_out_of_range_slot_rejected(self):
        with pytest.raises(ValueError):
            Utterance("u1", "D", "I", ("a",), (SlotSpan("X", 0, 2, "a b"),))

    def test_value_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Utterance("u1", "D", "I", ("a", "b"), (SlotSpan("X", 0, 1, "b"),))

    def test_whitespace_token_rejected(self):
        with pytest.raises(ValueError):
            Utterance("u1", "D", "I", ("a b",))

    def test_empty_token_list_rejected(self):
        with pytest.raises(ValueError):
            Utterance("u1", "D", "I", ())

    def test_bracket_token_rejected(self):
        with pytest.raises(ValueError):
            Utterance("u1", "D", "I", ("a[b",))

    @pytest.mark.parametrize("value", ["", " u", "u ", "a\tb", "a\rb", "a\nb"])
    @pytest.mark.parametrize("field,what", [(0, "utterance id"), (1, "domain"), (2, "intent")])
    def test_a_field_no_corpus_line_can_hold_is_rejected(self, field, what, value):
        fields = ["u1", "D", "I"]
        fields[field] = value
        with pytest.raises(ValueError, match=r"^invalid %s: " % what):
            Utterance(*fields, ("a",))

    def test_a_field_may_hold_inner_spaces(self):
        u = Utterance("u 1", "Home Automation", "Turn On", ("a",))
        assert parse_annotated_line(serialize_utterance(u)) == u

    def test_only_the_id_may_not_start_with_a_comment_or_byte_order_mark(self, tmp_path):
        # the id starts its corpus line, which would then be read as a
        # comment, or lose the mark if it is the file's first line
        with pytest.raises(ValueError, match=r"^invalid utterance id: '#u1'$"):
            Utterance("#u1", "D", "I", ("a",))
        with pytest.raises(ValueError, match=r"^invalid utterance id: '\\ufeffu1'$"):
            Utterance("\ufeffu1", "D", "I", ("a",))
        u = Utterance("u#1", "#D", "#I", ("a",))
        save_corpus([u], tmp_path / "c.tsv")
        assert load_corpus(tmp_path / "c.tsv") == [u]


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
        corpus = load_corpus(path)
        assert [u.id for u in corpus] == ["u1", "u2"]
        out = tmp_path / "out.tsv"
        save_corpus(corpus, out)
        assert load_corpus(out) == corpus

    def test_save_is_deterministic(self, tmp_path):
        corpus = [
            Utterance("u1", "D", "I", ("a", "b"), (SlotSpan("X", 0, 1, "a"),)),
            Utterance("u2", "D", "J", ("c",)),
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


# (id, loader, first line, a line that the format refuses, the message for
# it); the first three hold a number that Python's int or float would read
REFUSED_LINES = [
    ("weight-underscore", load_catalog, "#slot_type=City", "berlin\t0_5", "bad weight '0_5'"),
    ("weight-arabic-indic", load_catalog, "#slot_type=City", "berlin\t\u0661\u0662",
     "bad weight '\u0661\u0662'"),
    ("alignment-underscore", load_translations, "# translations",
     "u1\tc\t0-0_1\t0\t0\t0\t0\t0", "bad alignment pair '0-0_1'"),
    ("empty-phrase-side", load_phrase_table, "# phrases", "a ||| ||| -1", "empty phrase side"),
    ("alignment-without-dash", load_translations, "# translations",
     "u1\tc\t01\t0\t0\t0\t0\t0", "bad alignment pair '01'"),
    ("catalog-entry-without-tokens", load_catalog, "#slot_type=City", "\t1.0",
     "catalog entry must have at least one token"),
    ("empty-grammar-pattern", load_grammar, "# grammar", "I\tD\t1\t", "empty grammar pattern"),
]


@pytest.mark.parametrize("loader, first, bad, message", [r[1:] for r in REFUSED_LINES],
                         ids=[r[0] for r in REFUSED_LINES])
def test_refused_line_names_file_and_line(tmp_path, loader, first, bad, message):
    path = tmp_path / "data.txt"
    path.write_text("%s\n%s\n" % (first, bad), encoding="utf-8")
    with pytest.raises(FormatError) as err:
        loader(path)
    assert (err.value.path, err.value.line_no, err.value.message) == (path, 2, message)


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

    def test_total_weight_must_be_finite(self):
        near = Catalog("City", (CatalogEntry(("berlin",), 1e308), CatalogEntry(("paris",), 7e307)))
        assert sum(e.weight for e in near.entries) == 1.7e308
        with pytest.raises(ValueError, match="catalog City has a total weight that is not finite"):
            Catalog("City", (CatalogEntry(("berlin",), 1e308), CatalogEntry(("paris",), 1e308)))

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

    @pytest.mark.parametrize("pattern, token", [
        ("play {Song Name} now", "{Song"), ("{Song}{Song}", "{Song}{Song}"),
        ("play {}", "{}"), ("play it}", "it}")])
    def test_a_brace_token_must_be_a_placeholder(self, tmp_path, pattern, token):
        path = tmp_path / "g.tsv"
        path.write_text("# templates\nI\tD\t1\t%s\n" % pattern, encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(
                "%r is not a {SlotType} placeholder" % token)) as err:
            load_grammar(path)
        assert err.value.line_no == 2

    def test_intent_and_domain_follow_the_corpus_field_rule(self):
        template = GrammarTemplate("Play(Music)", "My Domain", ("play",), 1.0)
        assert (template.intent, template.domain) == ("Play(Music)", "My Domain")
        for intent, domain in (("A\tB", "D"), ("I", " D"), ("", "D")):
            with pytest.raises(ValueError, match="invalid (intent|domain)"):
                GrammarTemplate(intent, domain, ("play",), 1.0)

    def test_a_placeholder_names_a_slot_type(self):
        with pytest.raises(ValueError, match=re.escape("invalid slot type: 'City(x)'")):
            GrammarTemplate("I", "D", ("in", "{City(x)}"), 1.0)


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

    def test_a_sampled_corpus_reads_back_as_sampled(self, tmp_path):
        catalogs = {
            "A": Catalog("A", (CatalogEntry(("new", "york"), 1.0), CatalogEntry(("rome",), 1.0))),
            "B": Catalog("B", (CatalogEntry(("next", "friday", "night"), 2.0),
                               CatalogEntry(("today",), 1.0))),
        }
        templates = [GrammarTemplate("I", "D", ("{A}", "{B}"), 1.0),
                     GrammarTemplate("J", "D", ("go", "to", "{A}", "{B}", "please"), 1.0)]
        sampled = sample_grammar(templates, catalogs, 50, seed=3)
        assert any(len(s.value.split()) > 1 for u in sampled for s in u.slots)
        save_corpus(sampled, tmp_path / "c.tsv")
        assert load_corpus(tmp_path / "c.tsv") == sampled


def _catalog_tokens(path):
    return [t for c in load_catalogs([path]).values() for e in c.entries for t in e.tokens]


# (reader, file text, the tokens it reads in order)
INTERNING_READERS = [
    (lambda p: [t for u in load_corpus(p) for t in u.tokens],
     "u1\tMusic\tPlayMusic\tplay [new york](City) now\nu2\tMusic\tPlayMusic\tplay now\n",
     ["play", "new", "york", "now", "play", "now"]),
    (_catalog_tokens, "#slot_type=City\nNew York\t2\nberlin\n", ["new", "york", "berlin"]),
    (lambda p: [t for r in load_translations(p).values() for t in r.target_tokens],
     "u1\twie ist das\t0-0\t0\t0\t0\t0\t0\n", ["wie", "ist", "das"]),
    (lambda p: [t for src, tgt, _ in load_phrase_table(p) for t in src + tgt],
     "play now ||| spiel jetzt ||| -1\n", ["play", "now", "spiel", "jetzt"]),
    (lambda p: [t for g in load_grammar(p) for t in g.pattern],
     "PlayMusic\tMusic\t1\tplay {City} now\n", ["play", "{City}", "now"]),
]


def interned_copies(words):
    """The interned string of each of `words`, interned from a new copy:
    a reader that does not intern returns other objects."""
    return [sys.intern(w[:1] + w[1:]) for w in words]


class TestInterning:
    """Every reader interns the tokens it reads, so that a word read from any
    input is held once."""

    @pytest.mark.parametrize("read, text, expected", INTERNING_READERS,
                             ids=["load_corpus", "load_catalogs", "load_translations",
                                  "load_phrase_table", "load_grammar"])
    def test_a_reader_interns_its_tokens(self, tmp_path, read, text, expected):
        interned = interned_copies(expected)
        path = tmp_path / "input.tsv"
        path.write_text(text, encoding="utf-8")
        tokens = read(path)
        assert tokens == expected
        assert [t is i for t, i in zip(tokens, interned)] == [True] * len(tokens)

    def test_model_file_gazetteers_are_interned(self, tmp_path):
        corpus = [parse_annotated_line("u1\tD\tI\tgo to [new york](City)")]
        catalog = Catalog("City", (CatalogEntry(("New", "York"), 1.0),))
        train_slot_tagger(corpus, TrainingConfig(max_iterations=0),
                          gazetteers={"City": catalog}).save(tmp_path / "crf.json")
        interned = interned_copies(["new", "york"])
        loaded = CrfModel.load(tmp_path / "crf.json").gazetteers["City"]
        tokens = [t for e in loaded.entries for t in e.tokens]
        assert tokens == ["new", "york"]
        assert [t is i for t, i in zip(tokens, interned)] == [True, True]

    def test_a_word_from_a_catalog_and_a_corpus_is_one_object(self, tmp_path):
        (tmp_path / "city.tsv").write_text("#slot_type=City\nOslo Sentrum\n", encoding="utf-8")
        (tmp_path / "c.tsv").write_text("u1\tD\tI\tgo to oslo sentrum\n", encoding="utf-8")
        (entry,) = load_catalogs([tmp_path / "city.tsv"])["City"].entries
        (u,) = load_corpus(tmp_path / "c.tsv")
        assert entry.tokens == u.tokens[2:]
        assert all(a is b for a, b in zip(entry.tokens, u.tokens[2:]))
