"""Seeded input generators for the three benchmark workloads.

Everything here is independent of the package under test: the grammar,
catalogs, phrase tables, translation files and configs are written with this
module's own code, so the inputs of a workload depend only on its name, its
size and the seed.  The same (workload, size, seed) always writes the same
bytes.

The task is two artificial languages related word by word: a source word
``w`` translates to ``w_de``.  Intents come in pairs whose templates differ
only in one carrier token (play/download, weather/traffic, set/cancel,
buy/return), so each intent is marked by its own carrier and swapping the
carrier's image flips the meaning of a translation while keeping its slots.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

SUFFIX = "_de"
# a second, worse image of every word, so the decoder has competing options
ALT_SUFFIX = "_x"

TOY_VALUES = {
    "MediaName": ["bohemian rhapsody", "stairway to heaven", "hotel california",
                  "purple rain", "imagine"],
    "ArtistName": ["queen", "led zeppelin", "eagles", "prince", "john lennon"],
    "City": ["berlin", "hamburg", "new york", "paris", "munich"],
    "Time": ["five pm", "noon", "midnight", "nine am"],
    "Item": ["shoes", "red socks", "blue jacket", "headphones", "coffee mug"],
    "Date": ["monday", "next friday", "tomorrow", "june first", "sunday"],
}

# (major intent, carrier, minor intent, carrier, domain, short patterns,
#  long patterns); <c> marks the carrier position
PAIRS = [
    ("PlayMusic", "play", "DownloadMedia", "download", "Music",
     ["<c> {MediaName} by {ArtistName}", "<c> {MediaName}", "<c> songs by {ArtistName}"],
     ["hey please <c> the song {MediaName} by {ArtistName} right now",
      "i would like to <c> {MediaName} from the radio today"]),
    ("GetWeather", "weather", "GetTraffic", "traffic", "Info",
     ["<c> in {City}", "<c> in {City} at {Time}", "how is the <c> in {City}"],
     ["tell me about the <c> in {City} at {Time} today please",
      "what is the <c> like in {City} this evening"]),
    ("SetAlarm", "set", "CancelAlarm", "cancel", "Alarm",
     ["<c> alarm for {Time}", "<c> alarm for {Time} on {Date}",
      "please <c> my alarm at {Time}"],
     ["could you please <c> my alarm for {Time} on {Date}",
      "i need you to <c> the alarm at {Time} tomorrow morning"]),
    ("BuyItem", "buy", "ReturnItem", "return", "Shopping",
     ["<c> {Item}", "<c> {Item} on {Date}", "i want to <c> {Item}"],
     ["i would like to <c> the {Item} that i got on {Date}",
      "please help me <c> {Item} from the store today"]),
]

CARRIER = {}
CARRIER_SWAP = {}
for _major, _mc, _minor, _nc, *_ in PAIRS:
    CARRIER[_major], CARRIER[_minor] = _mc, _nc
    CARRIER_SWAP[_mc], CARRIER_SWAP[_nc] = _nc, _mc

# slot types whose values postprocessing copies back from the source side
RETAINED = frozenset({"MediaName"})

SYLLABLES = ["ka", "lo", "mi", "ne", "ru", "ta", "po", "se",
             "vi", "do", "ga", "be", "zu", "fi", "ho", "ja"]


@dataclass(frozen=True)
class Template:
    intent: str
    domain: str
    pattern: tuple[str, ...]
    weight: float


@dataclass(frozen=True)
class Utt:
    uid: str
    domain: str
    intent: str
    tokens: tuple[str, ...]
    slots: tuple[tuple[str, int, int], ...]  # (slot type, start, end)


@dataclass
class Inputs:
    """Paths of one generated workload plus the generator's own records."""

    root: Path
    config: Path
    source: list[Utt]
    test: list[Utt]
    corrupted: set[str] = field(default_factory=set)
    phrase_targets: set[str] = field(default_factory=set)
    phrase_sources: set[str] = field(default_factory=set)


def templates(long: bool, minor_weight: float) -> list[Template]:
    out = []
    for major, mc, minor, nc, domain, short_patterns, long_patterns in PAIRS:
        for pattern in long_patterns if long else short_patterns:
            out.append(Template(major, domain, tuple(pattern.replace("<c>", mc).split()), 1.0))
            out.append(Template(minor, domain, tuple(pattern.replace("<c>", nc).split()),
                                minor_weight))
    return out


class Deck:
    """Seeded draws that use every value equally often and spread the value
    lengths evenly over the draws."""

    def __init__(self, rng: random.Random, values: list):
        self.rng = rng
        self.values = values
        self.queue: list = []

    def draw(self) -> tuple[str, ...]:
        if not self.queue:
            buckets: dict[int, list] = {}
            for value in self.values:
                buckets.setdefault(len(value), []).append(value)
            keyed = []
            for length, bucket in sorted(buckets.items()):
                self.rng.shuffle(bucket)
                keyed += [((i + 0.5) / len(bucket), length, v) for i, v in enumerate(bucket)]
            self.queue = [v for _, _, v in sorted(keyed, reverse=True)]
        return self.queue.pop()


def sample(rng: random.Random, grammar: list[Template], values: dict, n: int,
           prefix: str) -> list[Utt]:
    """`n` utterances.  Each template is used in proportion to its weight,
    exactly up to rounding, in seeded order, and slot values come from a
    `Deck` per slot type.  The seed picks the content; the mix of templates
    and value lengths, and so the amount of work, stays the same."""
    total = sum(t.weight for t in grammar)
    quota = [n * t.weight / total for t in grammar]
    counts = [int(q) for q in quota]
    by_remainder = sorted(range(len(grammar)), key=lambda i: counts[i] - quota[i])
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    order = [t for t, c in zip(grammar, counts) for _ in range(c)]
    rng.shuffle(order)
    decks = {slot_type: Deck(rng, vs) for slot_type, vs in values.items()}
    out = []
    for i, template in enumerate(order):
        tokens: list[str] = []
        slots = []
        for tok in template.pattern:
            if tok.startswith("{"):
                slot_type = tok[1:-1]
                value = decks[slot_type].draw()
                slots.append((slot_type, len(tokens), len(tokens) + len(value)))
                tokens.extend(value)
            else:
                tokens.append(tok)
        out.append(Utt("%s%06d" % (prefix, i), template.domain, template.intent,
                       tuple(tokens), tuple(slots)))
    return out


def all_utterances(grammar: list[Template], values: dict) -> list[tuple[str, ...]]:
    """Every token sequence the grammar can produce (for small catalogs)."""
    out = []
    for template in grammar:
        partial = [()]
        for tok in template.pattern:
            choices = values[tok[1:-1]] if tok.startswith("{") else [(tok,)]
            partial = [p + tuple(c) for p in partial for c in choices]
        out.extend(partial)
    return sorted(set(out))


def vocabulary(values: dict) -> list[str]:
    words = {w for t in templates(False, 1.0) + templates(True, 1.0)
             for w in t.pattern if not w.startswith("{")}
    return sorted(words | {w for vs in values.values() for v in vs for w in v})


def image(word: str) -> str:
    return word + SUFFIX


def to_target(u: Utt, keep: frozenset) -> Utt:
    """Word-for-word image; values of the slot types in `keep` (names) stay
    as they are, as retention and the decoder's OOV copy leave them."""
    tokens = list(map(image, u.tokens))
    for slot_type, start, end in u.slots:
        if slot_type in keep:
            tokens[start:end] = u.tokens[start:end]
    return Utt(u.uid, u.domain, u.intent, tuple(tokens), u.slots)


# --- file writers ------------------------------------------------------------


def corpus_line(u: Utt) -> str:
    starts = {start: (slot_type, end) for slot_type, start, end in u.slots}
    parts = []
    i = 0
    while i < len(u.tokens):
        if i in starts:
            slot_type, end = starts[i]
            parts.append("[%s](%s)" % (" ".join(u.tokens[i:end]), slot_type))
            i = end
        else:
            parts.append(u.tokens[i])
            i += 1
    return "%s\t%s\t%s\t%s\n" % (u.uid, u.domain, u.intent, " ".join(parts))


def write_corpus(path: Path, corpus: list[Utt]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(corpus_line(u) for u in corpus)


def write_catalog(path: Path, slot_type: str, entries: list[tuple[str, ...]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("#slot_type=%s\n" % slot_type)
        fh.writelines("%s\t1.0\n" % " ".join(e) for e in entries)


def write_phrase_table(path: Path, pairs) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines("%s ||| %s ||| %r\n" % (" ".join(s), " ".join(t), score)
                      for s, t, score in pairs)


def translation_line(uid: str, target, alignment, tm: float, lm: float) -> str:
    """One translations-file line; weights are all 1, so the total is the sum."""
    wp = -float(len(target))
    pairs = " ".join("%d-%d" % p for p in sorted(alignment))
    total = tm + lm + 0.0 + wp
    return "\t".join([uid, " ".join(target), pairs, repr(tm), repr(lm), repr(0.0),
                      repr(wp), repr(total)]) + "\n"


def write_catalogs(root: Path, values: dict, prefix: str, keep: frozenset | None = None
                   ) -> list[str]:
    """Source catalogs, or with `keep` given, target catalogs whose values are
    translated except for the slot types in `keep`."""
    names = []
    for slot_type in sorted(values):
        entries = values[slot_type]
        if keep is not None and slot_type not in keep:
            entries = [tuple(map(image, e)) for e in entries]
        name = "catalog_%s_%s.tsv" % (prefix, slot_type.lower())
        write_catalog(root / name, slot_type, entries)
        names.append(name)
    return names


def write_config(root: Path, config: dict) -> Path:
    path = root / "config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def base_config(seed: int, source_catalogs, target_catalogs, training: dict) -> dict:
    return {
        "seed": seed,
        "out_dir": "out",
        "source_corpus": "train.tsv",
        "test_corpus": "test.tsv",
        "source_language": "en",
        "target_language": "de",
        "filter": {"mode": "INTENT", "score_multiplier": -1.0},
        "postprocess": {"resample_slots": ["City"], "retain_original_slots": ["MediaName"]},
        "catalogs": target_catalogs,
        "source_catalogs": source_catalogs,
        "training": training,
    }


def word_scores(rng: random.Random, corpus: list[Utt]) -> dict[str, tuple[float, float]]:
    """Per-word (translation, language model) log scores, so that normalised
    translation scores differ between utterances and domains."""
    words = sorted({w for u in corpus for w in u.tokens})
    return {w: (-round(rng.uniform(0.05, 0.6), 3), -round(rng.uniform(0.5, 2.0), 3))
            for w in words}


def monotone_translation(root: Path, rng: random.Random, corpus: list[Utt], values: dict,
                         swap: set[str] = frozenset()) -> dict:
    """Word-for-word forward translations read from a file, in which the ids
    in `swap` get their intent carrier replaced by the paired carrier's
    image, and a word-for-word backward phrase table for the decoder at
    max_jump 0.  Returns the config's translation section."""
    scores = word_scores(rng, corpus)
    with open(root / "forward.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for u in corpus:
            target = [image(w) for w in u.tokens]
            if u.uid in swap:
                carrier = CARRIER[u.intent]
                target[u.tokens.index(carrier)] = image(CARRIER_SWAP[carrier])
            tm = sum(scores[w][0] for w in u.tokens)
            lm = sum(scores[w][1] for w in u.tokens)
            fh.write(translation_line(u.uid, target, [(i, i) for i in range(len(target))],
                                      tm, lm))
    write_phrase_table(root / "backward_phrases.tsv",
                       [((image(w),), (w,), -0.1) for w in vocabulary(values)])
    return {"forward_translations": "forward.tsv",
            "backward_phrase_table": "backward_phrases.tsv",
            "max_jump": 0, "beam_size": 100}


# --- workloads ---------------------------------------------------------------


def toy_values() -> dict:
    return {t: [tuple(v.split()) for v in vs] for t, vs in TOY_VALUES.items()}


def filter_train(root: Path, seed: int, size: dict) -> Inputs:
    """Criterion 6 at a smaller size: 30% of the forward translations have
    their carrier swapped; the backward decoder translates word for word."""
    rng = random.Random("filter-train|%d" % seed)
    values = toy_values()
    source = sample(rng, templates(False, 0.5), values, size["train"], "tr")
    test = [to_target(u, RETAINED) for u in
            sample(rng, templates(False, 1.0), values, size["test"], "te")]
    corrupted = set(rng.sample([u.uid for u in source], round(0.3 * len(source))))
    write_corpus(root / "train.tsv", source)
    write_corpus(root / "test.tsv", test)
    config = base_config(seed, write_catalogs(root, values, "src"),
                         write_catalogs(root, values, "tgt", RETAINED),
                         {"l2": 0.001, "max_iterations": 60, "tolerance": 1e-6})
    config["translation"] = monotone_translation(root, rng, source, values, corrupted)
    return Inputs(root, write_config(root, config), source, test, corrupted)


# ArtistName values are names: the phrase tables leave them out, so the
# decoder copies them as out-of-vocabulary tokens
NAMES = frozenset(w for v in TOY_VALUES["ArtistName"] for w in v.split())


def reorder_phrases(grammar: list[Template], values: dict) -> tuple[list, list]:
    """Forward and backward phrase tables for the decode-reorder workload.

    Each word has a good and a worse image; each adjacent word pair that the
    grammar can produce also translates as a unit with its order swapped.
    The tables depend on the grammar only, not on the seed, so every
    utterance a seed can draw is one of `all_utterances`.
    """
    sentences = all_utterances(grammar, values)
    words = sorted({w for s in sentences for w in s} - NAMES)
    bigrams = sorted({(a, b) for s in sentences for a, b in zip(s, s[1:])
                      if a not in NAMES and b not in NAMES})
    forward = [((w,), (w + SUFFIX,), -0.1) for w in words]
    forward += [((w,), (w + ALT_SUFFIX,), -0.7) for w in words]
    forward += [((a, b), (b + SUFFIX, a + SUFFIX), -0.3) for a, b in bigrams]
    backward = [(tgt, src, score) for src, tgt, score in forward]
    return forward, backward


def decode_reorder(root: Path, seed: int, size: dict) -> Inputs:
    """Long utterances decoded in both directions with reordering."""
    rng = random.Random("decode-reorder|%d" % seed)
    values = toy_values()
    grammar = templates(True, 0.5)
    source = sample(rng, grammar, values, size["train"], "tr")
    test = [to_target(u, RETAINED | {"ArtistName"}) for u in
            sample(rng, templates(True, 1.0), values, size["test"], "te")]
    forward, backward = reorder_phrases(templates(True, 1.0), values)
    write_corpus(root / "train.tsv", source)
    write_corpus(root / "test.tsv", test)
    write_phrase_table(root / "forward_phrases.tsv", forward)
    write_phrase_table(root / "backward_phrases.tsv", backward)
    config = base_config(seed, write_catalogs(root, values, "src"),
                         write_catalogs(root, values, "tgt", RETAINED | {"ArtistName"}),
                         {"l2": 0.001, "max_iterations": 15, "tolerance": 1e-6})
    config["translation"] = {"forward_phrase_table": "forward_phrases.tsv",
                             "backward_phrase_table": "backward_phrases.tsv",
                             "max_jump": 2, "beam_size": 100}
    return Inputs(root, write_config(root, config), source, test,
                  phrase_targets={w for _, t, _ in forward for w in t},
                  phrase_sources={s[0] for s, _, _ in forward if len(s) == 1})


def generated_values(rng: random.Random, entries: int) -> dict:
    """`entries` distinct pseudo-word values of one to three words per type."""
    values = {}
    for slot_type in sorted(TOY_VALUES):
        seen: set = set()
        while len(seen) < entries:
            length = (1, 1, 2, 2, 3)[len(seen) % 5]
            seen.add(tuple("".join(rng.choices(SYLLABLES, k=rng.choice((2, 3))))
                           for _ in range(length)))
        values[slot_type] = sorted(seen)
    return values


def large_catalog(root: Path, seed: int, size: dict) -> Inputs:
    """Thousands of catalog entries per slot type and monotone translations,
    so gazetteer scans dominate."""
    rng = random.Random("large-catalog|%d" % seed)
    values = generated_values(rng, size["entries"])
    source = sample(rng, templates(False, 0.5), values, size["train"], "tr")
    test = [to_target(u, RETAINED) for u in
            sample(rng, templates(False, 1.0), values, size["test"], "te")]
    write_corpus(root / "train.tsv", source)
    write_corpus(root / "test.tsv", test)
    config = base_config(seed, write_catalogs(root, values, "src"),
                         write_catalogs(root, values, "tgt", RETAINED),
                         {"l2": 0.001, "max_iterations": 30, "tolerance": 1e-6})
    config["translation"] = monotone_translation(root, rng, source, values)
    return Inputs(root, write_config(root, config), source, test)


# sizes: "full" is the measured workload, "smoke" a seconds-long run of the
# same code path for the benchmark's own test
WORKLOADS = {
    "filter-train": (filter_train, {"full": {"train": 300, "test": 150},
                                    "smoke": {"train": 150, "test": 40}}),
    "decode-reorder": (decode_reorder, {"full": {"train": 60, "test": 50},
                                        "smoke": {"train": 40, "test": 20}}),
    "large-catalog": (large_catalog, {"full": {"train": 60, "test": 30, "entries": 1000},
                                      "smoke": {"train": 40, "test": 20, "entries": 200}}),
}


def generate(workload: str, size: str, root: Path, seed: int) -> Inputs:
    make, sizes = WORKLOADS[workload]
    root.mkdir(parents=True, exist_ok=True)
    return make(root, seed, sizes[size])
