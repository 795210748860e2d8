"""Synthetic bilingual task shared by pipeline, CLI, and acceptance tests.

Two artificial languages related by a bijective word table: every source
token ``w`` maps to exactly one target token ``w_de`` and back.  With
``max_jump=0`` the decoder is forced into a word-for-word monotone
translation, so the round trip is lossless unless a translation is corrupted
on purpose.

Intents come in carrier pairs (play/download, weather/traffic, set/cancel,
buy/return): the templates of a pair are identical except for one carrier
token, so swapping the carrier's target image flips the utterance's meaning
while leaving every slot intact.
"""

import json
import random

from mtnlu.cli import main
from mtnlu.corpus import (
    Catalog,
    CatalogEntry,
    GrammarTemplate,
    Utterance,
    make_span,
    sample_grammar,
    save_corpus,
)
from mtnlu.pipeline import load_pipeline_config, run_pipeline
from mtnlu.translate import TranslationResult, TranslationScores

SUFFIX = "_de"

CATALOG_VALUES = {
    "MediaName": ["bohemian rhapsody", "stairway to heaven", "hotel california",
                  "purple rain", "imagine"],
    "ArtistName": ["queen", "led zeppelin", "eagles", "prince", "john lennon"],
    "City": ["berlin", "hamburg", "new york", "paris", "munich"],
    "Time": ["five pm", "noon", "midnight", "nine am"],
    "Item": ["shoes", "red socks", "blue jacket", "headphones", "coffee mug"],
    "Date": ["monday", "next friday", "tomorrow", "june first", "sunday"],
}

# (major intent, major carrier, minor intent, minor carrier, domain, patterns);
# <c> marks the carrier position in each pattern
PAIRS = [
    ("PlayMusic", "play", "DownloadMedia", "download", "Music",
     ["<c> {MediaName} by {ArtistName}",
      "<c> {MediaName}",
      "<c> songs by {ArtistName}"]),
    ("GetWeather", "weather", "GetTraffic", "traffic", "Info",
     ["<c> in {City}",
      "<c> in {City} at {Time}",
      "how is the <c> in {City}"]),
    ("SetAlarm", "set", "CancelAlarm", "cancel", "Alarm",
     ["<c> alarm for {Time}",
      "<c> alarm for {Time} on {Date}",
      "please <c> my alarm at {Time}"]),
    ("BuyItem", "buy", "ReturnItem", "return", "Shopping",
     ["<c> {Item}",
      "<c> {Item} on {Date}",
      "i want to <c> {Item}"]),
]

INTENT_CARRIER = {}
CARRIER_SWAP = {}
for _major, _mc, _minor, _nc, _domain, _pats in PAIRS:
    INTENT_CARRIER[_major] = _mc
    INTENT_CARRIER[_minor] = _nc
    CARRIER_SWAP[_mc] = _nc
    CARRIER_SWAP[_nc] = _mc


def source_catalogs():
    return {
        t: Catalog(t, tuple(CatalogEntry(tuple(v.split()), 1.0) for v in values))
        for t, values in CATALOG_VALUES.items()
    }


def target_catalogs():
    return {
        t: Catalog(
            t,
            tuple(
                CatalogEntry(tuple(w + SUFFIX for w in v.split()), 1.0)
                for v in values
            ),
        )
        for t, values in CATALOG_VALUES.items()
    }


def grammar_templates(minor_weight=0.15):
    """Training grammar: the minor member of each pair is rare."""
    templates = []
    for major, mc, minor, nc, domain, patterns in PAIRS:
        for pattern in patterns:
            templates.append(GrammarTemplate(
                major, domain, tuple(pattern.replace("<c>", mc).split()), 1.0))
            templates.append(GrammarTemplate(
                minor, domain, tuple(pattern.replace("<c>", nc).split()), minor_weight))
    return templates


def test_templates():
    """Evaluation grammar: all eight intents equally likely."""
    return grammar_templates(minor_weight=1.0)


def vocabulary():
    words = set()
    for values in CATALOG_VALUES.values():
        for v in values:
            words.update(v.split())
    for _major, mc, _minor, nc, _domain, patterns in PAIRS:
        words.update({mc, nc})
        for pattern in patterns:
            words.update(w for w in pattern.split() if w != "<c>" and not w.startswith("{"))
    return sorted(words)


def phrase_table_lines(direction="forward"):
    lines = []
    for w in vocabulary():
        src, tgt = (w, w + SUFFIX) if direction == "forward" else (w + SUFFIX, w)
        lines.append("%s ||| %s ||| -0.1" % (src, tgt))
    return lines


def translate_tokens(tokens):
    return tuple(t + SUFFIX for t in tokens)


def word_for_word_result(uid, tokens):
    target = translate_tokens(tokens)
    tm = -0.1 * len(target)
    wp = -float(len(target))
    return TranslationResult(
        target,
        frozenset((i, i) for i in range(len(tokens))),
        TranslationScores(tm, 0.0, 0.0, wp, tm + wp),
    )


def forward_results(corpus, corrupt_fraction=0.0, seed=0):
    """Word-for-word forward translations; a sampled subset gets its intent
    carrier replaced with the paired carrier's image.

    Returns (results by id, ids of corrupted utterances).
    """
    rng = random.Random(seed)
    results = {}
    corrupted = set()
    for u in corpus:
        result = word_for_word_result(u.id, u.tokens)
        if corrupt_fraction > 0 and rng.random() < corrupt_fraction:
            carrier = INTENT_CARRIER[u.intent]
            position = u.tokens.index(carrier)
            target = list(result.target_tokens)
            target[position] = CARRIER_SWAP[carrier] + SUFFIX
            result = TranslationResult(
                tuple(target), result.alignment, result.scores
            )
            corrupted.add(u.id)
        results[u.id] = result
    return results, corrupted


# --- file layout for CLI-level tests -----------------------------------------


def write_catalog_file(path, catalog):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("#slot_type=%s\n" % catalog.slot_type)
        for entry in catalog.entries:
            fh.write("%s\t%r\n" % (" ".join(entry.tokens), entry.weight))


def write_grammar_file(path, templates):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for t in templates:
            fh.write("%s\t%s\t%r\t%s\n" % (t.intent, t.domain, t.weight, " ".join(t.pattern)))


def write_phrase_table(path, direction):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in phrase_table_lines(direction):
            fh.write(line + "\n")


def write_task_files(root):
    """Materialize grammars, catalogs, and phrase tables under `root`.

    Returns a dict of paths (strings) keyed by artifact name.
    """
    root.mkdir(parents=True, exist_ok=True)
    paths = {}
    write_grammar_file(root / "grammar_train.tsv", grammar_templates())
    write_grammar_file(root / "grammar_test.tsv", test_templates())
    paths["grammar_train"] = str(root / "grammar_train.tsv")
    paths["grammar_test"] = str(root / "grammar_test.tsv")
    paths["source_catalogs"] = []
    paths["target_catalogs"] = []
    for slot_type, catalog in sorted(source_catalogs().items()):
        p = root / ("catalog_src_%s.tsv" % slot_type.lower())
        write_catalog_file(p, catalog)
        paths["source_catalogs"].append(str(p))
    for slot_type, catalog in sorted(target_catalogs().items()):
        p = root / ("catalog_tgt_%s.tsv" % slot_type.lower())
        write_catalog_file(p, catalog)
        paths["target_catalogs"].append(str(p))
    write_phrase_table(root / "phrases_forward.tsv", "forward")
    write_phrase_table(root / "phrases_backward.tsv", "backward")
    paths["forward_phrase_table"] = str(root / "phrases_forward.tsv")
    paths["backward_phrase_table"] = str(root / "phrases_backward.tsv")
    return paths


def to_target(u):
    """Map a source-side utterance onto target tokens (monotone, invertible)."""
    tokens = translate_tokens(u.tokens)
    slots = tuple(make_span(tokens, s.slot_type, s.start, s.end) for s in u.slots)
    return Utterance(u.id, u.domain, u.intent, tokens, slots)


def sample_source(n, seed, templates=None, id_prefix="tr"):
    return sample_grammar(
        templates if templates is not None else grammar_templates(),
        source_catalogs(), n, seed, id_prefix=id_prefix,
    )


def sample_target_test(n, seed):
    return [to_target(u) for u in
            sample_source(n, seed, templates=test_templates(), id_prefix="te")]


def default_config(paths, seed=7):
    return {
        "seed": seed,
        "out_dir": "out",
        "source_corpus": paths["train_corpus"],
        "test_corpus": paths["test_corpus"],
        "source_language": "en",
        "target_language": "de",
        "translation": {
            "forward_phrase_table": paths["forward_phrase_table"],
            "backward_phrase_table": paths["backward_phrase_table"],
            "max_jump": 0,
        },
        "filter": {"mode": "INTENT"},
        "postprocess": {
            "resample_slots": ["City"],
            "retain_original_slots": ["MediaName"],
        },
        "catalogs": paths["target_catalogs"],
        "source_catalogs": paths["source_catalogs"],
        "training": {"l2": 0.001, "max_iterations": 60, "tolerance": 1e-6},
    }


def build_workspace(root, n_train=120, n_test=40, seed=7, config_update=None):
    """Write corpora, task files, and a config under `root`.

    `config_update` is merged one section deep over the defaults.  Returns
    the config path as a string.
    """
    paths = write_task_files(root)
    train = sample_source(n_train, seed)
    test = sample_target_test(n_test, seed + 1)
    save_corpus(train, root / "train.tsv")
    save_corpus(test, root / "test.tsv")
    paths["train_corpus"] = str(root / "train.tsv")
    paths["test_corpus"] = str(root / "test.tsv")
    config = default_config(paths, seed)
    for key, value in (config_update or {}).items():
        if isinstance(value, dict) and isinstance(config.get(key), dict):
            config[key].update(value)
        else:
            config[key] = value
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return str(config_path)


def train_model_pair(root):
    """Train a small model pair with `mtnlu pipeline`; returns the config path
    and the output directory that holds crf_model.json and intent_model.json."""
    config = build_workspace(root, n_train=30, n_test=10, config_update={"stages": ["train"]})
    assert main(["pipeline", "--config", config]) == 0
    return config, root / "out"


def run_config(path, **overrides):
    """Run the pipeline on the config at `path`; `overrides` as for
    `load_pipeline_config`."""
    return run_pipeline(load_pipeline_config(path, **overrides))


def differing_files(a, b):
    """The names of the files that differ between the directories `a` and
    `b`, which must hold the same names."""
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    return {n for n in names if (a / n).read_bytes() != (b / n).read_bytes()}
