"""Config handling and staged execution."""

import dataclasses
import functools
import importlib.util
import json
import logging
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import mtnlu
import toytask
from toytask import run_config
from mtnlu.corpus import (CatalogEntry, SlotSpan, Utterance, load_catalogs, load_corpus,
                          serialize_utterance)
from mtnlu import filtering, pipeline
from mtnlu.errors import ConfigError
from mtnlu.cli import main
from mtnlu.filtering import (INTENT_MISMATCH, NO_BACK_TRANSLATION, NO_TRANSLATION, FilterConfig,
                             roundtrip_check)
from mtnlu.nlu import TrainingConfig, train_slot_tagger
from mtnlu.postprocess import PostprocessConfig, combined_postprocess
from mtnlu.pipeline import (
    STAGES,
    PipelineConfig,
    StageFailure,
    TranslationConfig,
    load_pipeline_config,
    run_pipeline,
    stage_seed,
)
from mtnlu.semer import read_semer_report
from mtnlu.translate import (TranslationResult, TranslationScores, load_translations,
                             save_translations)


def fail_postprocess(monkeypatch):
    """Make the postprocess stage's handler raise."""
    reads, makes, _, files = pipeline._STAGES["postprocess"]

    def failing_handler(config, state):
        raise ValueError("postprocess handler failed")

    monkeypatch.setitem(pipeline._STAGES, "postprocess", (reads, makes, failing_handler, files))


def assert_same_files(a, b):
    assert toytask.differing_files(a, b) == set()


def readme_stage_files():
    """README's stage table: the files each stage writes, by stage."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(r"^\| `([a-z-]+)` \| .* \| (.*) \|$", readme.read_text(encoding="utf-8"),
                      re.MULTILINE)
    return {stage: set(re.findall(r"`([^`]+)`", writes)) for stage, writes in rows}


# what every run writes beside the files of its stages
RUN_FILES = {"effective_config.json", "stage_reports.tsv"}


class TestConfigLoading:
    def test_defaults_and_overrides(self, tmp_path):
        config_path = toytask.build_workspace(tmp_path)
        config = load_pipeline_config(config_path)
        assert config.seed == 7
        assert config.stages == STAGES
        assert config.out_dir == str(tmp_path / "out")
        assert config.translation.max_jump == 0 and config.translation.beam_size == 100
        overridden = load_pipeline_config(
            config_path, seed=99, stages=["train", "evaluate"], out_dir=str(tmp_path / "o2")
        )
        assert overridden.seed == 99
        assert overridden.stages == ("train", "evaluate")
        assert overridden.out_dir == str(tmp_path / "o2")

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        toytask.build_workspace(tmp_path)
        config = {
            "out_dir": "out",
            "source_corpus": "train.tsv",
            "test_corpus": "test.tsv",
            "stages": ["train", "evaluate"],
        }
        p = tmp_path / "rel.json"
        p.write_text(json.dumps(config), encoding="utf-8")
        loaded = load_pipeline_config(str(p))
        assert loaded.source_corpus == str(tmp_path / "train.tsv")
        assert loaded.out_dir == str(tmp_path / "out")

    def test_missing_referenced_file_is_an_error(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "out_dir": "out", "source_corpus": "absent.tsv", "stages": ["train"],
        }), encoding="utf-8")
        with pytest.raises(ConfigError, match="absent.tsv"):
            load_pipeline_config(str(p))

    def test_unknown_keys_are_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"out_dir": "out", "stages": ["evaluate"],
                                 "typo_key": 1}), encoding="utf-8")
        with pytest.raises(ConfigError, match="typo_key"):
            load_pipeline_config(str(p))

    def test_invalid_json_is_an_error(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON"):
            load_pipeline_config(str(p))

    def test_byte_order_mark_is_dropped(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"out_dir": "out", "stages": ["evaluate"],
                                 "test_corpus": "c.json"}), encoding="utf-8-sig")
        assert p.read_bytes().startswith(b"\xef\xbb\xbf{")
        assert load_pipeline_config(str(p)).test_corpus == str(p)

    def test_out_dir_that_is_not_a_string_names_the_config(self, tmp_path):
        config_path = toytask.build_workspace(tmp_path)
        with pytest.raises(ConfigError, match=r"config\.json: out_dir must be a string, got .*'x'"):
            load_pipeline_config(config_path, out_dir=Path("x"))

    def test_out_dir_required(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"stages": ["evaluate"]}), encoding="utf-8")
        with pytest.raises(ConfigError, match="out_dir"):
            load_pipeline_config(str(p))


class TestConfigValueTypes:
    """Ill-typed values are a ConfigError (exit 1), never a traceback or a
    silent conversion."""

    @pytest.mark.parametrize(
        "update, message",
        [
            ({"seed": None}, "seed must be an integer"),
            ({"seed": 1.5}, "seed must be an integer"),
            ({"seed": True}, "seed must be an integer"),
            ({"seed": "7"}, "seed must be an integer"),
            ({"translation": {"max_jump": None}}, "max_jump must be an integer"),
            ({"translation": {"max_jump": 2.0}}, "max_jump must be an integer"),
            ({"translation": {"beam_size": 1.7}}, "beam_size must be an integer"),
            ({"translation": {"beam_size": False}}, "beam_size must be an integer"),
            ({"translation": {"lm_alpha": None}}, "lm_alpha must be a number"),
            ({"translation": {"lm_alpha": "0.1"}}, "lm_alpha must be a number"),
            ({"postprocess": {"mix_probability": None}}, "mix_probability must be a number"),
            ({"postprocess": {"mix_probability": True}}, "mix_probability must be a number"),
            ({"translation": {"weights": ["a", 1, 1, 1]}}, "weights must be a list of 4 numbers"),
            ({"translation": {"weights": [1, 1, 1]}}, "weights must be a list of 4 numbers"),
            ({"translation": {"weights": "abcd"}}, "weights must be a list of 4 numbers"),
            ({"translation": {"weights": None}}, "weights must be a list of 4 numbers"),
            ({"source_language": 5}, "source_language must be a string, got 5"),
            ({"filter": {"use_gold_labels": "no"}}, "use_gold_labels must be true or false"),
            ({"postprocess": {"retain_original_slots": "City"}},
             "retain_original_slots must be a list of strings"),
            ({"training": {"max_iterations": 1.5}}, "max_iterations must be an integer"),
            ({"training": {"max_iterations": True}}, "max_iterations must be an integer"),
            ({"filter": {"confidence_threshold": True}}, "confidence_threshold must be a number"),
            ({"filter": {"score_multiplier": "1"}}, "score_multiplier must be a number"),
            ({"postprocess": {"mix_probability": 1.5}}, r"mix_probability must lie in \[0, 1\]"),
            ({"translation": []}, "translation must be a JSON object, got \\[\\]"),
            ({"filter": None}, "filter must be a JSON object, got null"),
            ({"training": {"l2": float("nan")}}, "l2 must be a number, got NaN"),
            ({"training": {"l2": float("inf")}}, "l2 must be a number, got Infinity"),
            ({"training": {"l2": 10 ** 400}}, "l2 must be a number"),
            ({"training": {"tolerance": float("nan")}}, "tolerance must be a number"),
            ({"translation": {"weights": [1, 1, float("-inf"), 1]}},
             "weights must be a list of 4 numbers"),
            ({"training": {"l2": -0.5}}, "l2 must be non-negative"),
            ({"training": {"max_iterations": -1}}, "max_iterations must be >= 0"),
            ({"training": {"tolerance": 0}}, "tolerance > 0"),
            ({"filter": {"slot_comparison": "VALUES"}}, "unknown slot comparison 'VALUES'"),
            ({"translation": {"max_jump": -3}}, "max_jump must be >= 0, got -3"),
            ({"translation": {"beam_size": 0}}, "beam_size must be >= 1, got 0"),
            ({"translation": {"lm_alpha": 0}}, "lm_alpha must be positive, got 0.0"),
            ({"translation": {"lm_alpha": -1.0}}, "lm_alpha must be positive, got -1.0"),
        ],
    )
    def test_rejected(self, tmp_path, update, message):
        config_path = toytask.build_workspace(tmp_path, n_train=4, n_test=2, config_update=update)
        with pytest.raises(ConfigError, match=message) as info:
            load_pipeline_config(config_path)
        assert str(info.value).startswith(config_path + ": "), info.value

    def test_numbers_accepted(self, tmp_path):
        config_path = toytask.build_workspace(tmp_path, n_train=4, n_test=2, config_update={
            "seed": 3,
            "translation": {"weights": [1, 0.5, 2, 0], "max_jump": 1, "beam_size": 7,
                            "lm_alpha": 1},
            "postprocess": {"mix_probability": 1},
        })
        config = load_pipeline_config(config_path)
        assert config.seed == 3
        assert config.translation.weights == (1, 0.5, 2, 0)
        assert (config.translation.max_jump, config.translation.beam_size) == (1, 7)
        assert config.translation.lm_alpha == 1.0 \
            and isinstance(config.translation.lm_alpha, float)
        assert config.postprocess.mix_probability == 1.0 \
            and isinstance(config.postprocess.mix_probability, float)


    def test_integer_and_float_weights_share_a_fingerprint(self, tmp_path):
        config = json.loads(
            Path(toytask.build_workspace(tmp_path, n_train=4, n_test=2)).read_text())
        fingerprints = set()
        for name, weights in [("ints", [1, 1, 1, 1]), ("floats", [1.0, 1.0, 1.0, 1.0])]:
            config["translation"]["weights"] = weights
            path = tmp_path / ("%s.json" % name)
            path.write_text(json.dumps(config), encoding="utf-8")
            fingerprints.add(load_pipeline_config(str(path)).fingerprint())
        assert len(fingerprints) == 1


FORWARD_TABLE = TranslationConfig(forward_phrase_table="pt")


class TestStageValidation:
    def test_out_of_order_stages_rejected(self):
        with pytest.raises(ConfigError, match="subsequence"):
            PipelineConfig(out_dir="o", stages=("project", "translate"))

    def test_repeated_stage_rejected(self):
        with pytest.raises(ConfigError, match="subsequence"):
            PipelineConfig(out_dir="o", stages=("train", "train"))

    def test_unknown_stage_rejected(self):
        with pytest.raises(ConfigError, match="unknown stage"):
            PipelineConfig(out_dir="o", stages=("tokenize",))

    def test_empty_stage_list_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            PipelineConfig(out_dir="o", stages=())

    def test_translate_requires_forward(self):
        with pytest.raises(ConfigError, match="forward"):
            PipelineConfig(out_dir="o", stages=("translate",), source_corpus="x")

    def test_project_requires_translations(self):
        with pytest.raises(ConfigError, match="translations"):
            PipelineConfig(out_dir="o", stages=("project",), source_corpus="x")

    def test_filter_semantic_requires_backward(self):
        with pytest.raises(ConfigError, match="backward"):
            PipelineConfig(
                out_dir="o", stages=("translate", "filter-semantic"),
                source_corpus="x", translation=TranslationConfig(forward_phrase_table="pt"),
            )

    def test_evaluate_requires_test_corpus(self):
        with pytest.raises(ConfigError, match="test_corpus"):
            PipelineConfig(out_dir="o", stages=("evaluate",))

    def test_source_corpus_required_for_training(self):
        with pytest.raises(ConfigError, match="source_corpus"):
            PipelineConfig(out_dir="o", stages=("train",))

    @pytest.mark.parametrize("stages, given, line", [
        (("translate",), {"source_corpus": "x"},
         "stages ['translate'] need a forward translations file or phrase table"),
        (("project", "filter-score"), {"source_corpus": "x"},
         "stages ['filter-score', 'project'] need translations: run the translate stage "
         "or configure a forward translations file"),
        (("project",), {"source_corpus": "x", "translation": FORWARD_TABLE},
         "stages ['project'] need translations: run the translate stage "
         "or configure a forward translations file"),
        (("translate", "filter-semantic"), {"source_corpus": "x", "translation": FORWARD_TABLE},
         "stages ['filter-semantic'] need a backward translations file or phrase table"),
        (("train",), {}, "stages ['train'] need a source_corpus"),
        (("evaluate",), {}, "stages ['evaluate'] need a test_corpus"),
    ], ids=["forward", "translations", "translations-with-table", "backward", "source", "test"])
    def test_missing_input_line(self, stages, given, line):
        with pytest.raises(ConfigError) as exc:
            PipelineConfig(out_dir="o", stages=stages, **given)
        assert str(exc.value) == line

    def test_the_first_missing_input_in_load_order_is_named(self):
        # every stage but translate misses four inputs; given one at a time,
        # each is named in the order that `_setup` loads them
        with pytest.raises(ConfigError, match=r"^stages \['translate'\] need a source_corpus$"):
            PipelineConfig(out_dir="o", stages=("translate",))
        backward = TranslationConfig(backward_phrase_table="pt")
        needs = []
        for given in [{}, {"source_corpus": "x"}, {"source_corpus": "x", "test_corpus": "y"},
                      {"source_corpus": "x", "test_corpus": "y", "translation": backward}]:
            with pytest.raises(ConfigError) as exc:
                PipelineConfig(out_dir="o", stages=STAGES[1:], **given)
            needs.append(str(exc.value).partition(" need ")[2])
        assert needs == ["a source_corpus", "a test_corpus",
                         "a backward translations file or phrase table",
                         "translations: run the translate stage or configure a forward "
                         "translations file"]

    def test_every_input_a_stage_reads_or_makes_has_a_loader(self):
        reads = set().union(*(r for r, _, _, _ in pipeline._STAGES.values()))
        makes = {m for _, m, _, _ in pipeline._STAGES.values() if m is not None}
        assert reads == pipeline._INPUTS.keys()
        assert makes <= reads

    def test_both_file_and_table_rejected(self):
        with pytest.raises(ConfigError, match="not both"):
            TranslationConfig(forward_translations="a", forward_phrase_table="b")


class TestFingerprint:
    def base(self):
        return dict(
            out_dir="o", stages=("train", "evaluate"),
            source_corpus="x", test_corpus="y",
        )

    def test_out_dir_does_not_change_fingerprint(self):
        a = PipelineConfig(**self.base())
        b = PipelineConfig(**{**self.base(), "out_dir": "elsewhere"})
        assert a.fingerprint() == b.fingerprint()

    def test_every_effective_field_changes_fingerprint(self):
        reference = PipelineConfig(**self.base()).fingerprint()
        variants = [
            {"seed": 1},
            {"stages": ("train",)},
            {"source_corpus": "x2"},
            {"test_corpus": "y2"},
            {"source_language": "fr"},
            {"target_language": "it"},
            {"postprocess": PostprocessConfig(mix_probability=0.25)},
            {"postprocess": PostprocessConfig(resample_slots=("City",))},
            {"postprocess": PostprocessConfig(retain_original_slots=("Song",))},
            {"catalogs": ("c.tsv",)},
            {"source_catalogs": ("s.tsv",)},
            {"translation": TranslationConfig(weights=(1.0, 1.0, 1.0, 0.0))},
            {"translation": TranslationConfig(max_jump=1)},
            {"translation": TranslationConfig(beam_size=10)},
            {"translation": TranslationConfig(lm_alpha=0.2)},
        ]
        seen = {reference}
        for change in variants:
            fp = PipelineConfig(**{**self.base(), **change}).fingerprint()
            assert fp not in seen, change
            seen.add(fp)

    def test_filter_and_training_settings_are_fingerprinted(self):
        a = PipelineConfig(**self.base())
        b = PipelineConfig(**self.base(), filter=FilterConfig(mode="INTENT_SLOTS"))
        c = PipelineConfig(**self.base(), training=TrainingConfig(l2=0.5))
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3


def toytask_config(base) -> PipelineConfig:
    """The config `toytask.build_workspace(base)` writes, as loaded."""
    def catalogs(side):
        return tuple("%s/catalog_%s_%s.tsv" % (base, side, t)
                     for t in ("artistname", "city", "date", "item", "medianame", "time"))

    return PipelineConfig(
        out_dir="%s/out" % base, seed=7, stages=STAGES,
        source_corpus="%s/train.tsv" % base, test_corpus="%s/test.tsv" % base,
        source_language="en", target_language="de",
        translation=TranslationConfig(
            forward_phrase_table="%s/phrases_forward.tsv" % base,
            backward_phrase_table="%s/phrases_backward.tsv" % base,
            max_jump=0,
        ),
        filter=FilterConfig(mode="INTENT"),
        postprocess=PostprocessConfig(resample_slots={"City"},
                                      retain_original_slots={"MediaName"}),
        catalogs=catalogs("tgt"), source_catalogs=catalogs("src"),
        training=TrainingConfig(l2=0.001, max_iterations=60, tolerance=1e-6),
    )


def nondefault_config(base, forward_file: bool) -> PipelineConfig:
    """Every key away from its default; a direction reads either a file or a
    phrase table, so `forward_file` picks which keys of the pair are set."""
    translation = dict(
        weights=(0.5, 1.5, 0.25, -0.75), max_jump=3, beam_size=50, lm_alpha=0.3)
    if forward_file:
        translation.update(forward_translations="%s/forward.tsv" % base,
                           backward_phrase_table="%s/backward_phrases.tsv" % base)
    else:
        translation.update(forward_phrase_table="%s/forward_phrases.tsv" % base,
                           backward_translations="%s/backward.tsv" % base)
    return PipelineConfig(
        out_dir="%s/elsewhere" % base, seed=11, stages=STAGES[int(forward_file):],
        source_corpus="%s/train.tsv" % base, test_corpus="%s/test.tsv" % base,
        source_language="en", target_language="de",
        translation=TranslationConfig(**translation),
        filter=FilterConfig(mode="INTENT_SLOTS", confidence_threshold=0.25,
                            score_multiplier=-0.5, slot_comparison="TYPES_AND_VALUES",
                            use_gold_labels=True),
        postprocess=PostprocessConfig(resample_slots=("Date", "City"),
                                      retain_original_slots=("MediaName",),
                                      mix_probability=0.75),
        catalogs=("%s/c_city.tsv" % base, "%s/c_date.tsv" % base),
        source_catalogs=("%s/s_city.tsv" % base,),
        training=TrainingConfig(l2=0.5, max_iterations=25, tolerance=1e-4),
    )


def as_file(config: PipelineConfig) -> dict:
    """`config` as the JSON a config file holds (the effective config plus
    out_dir)."""
    return {**config.effective(), "out_dir": config.out_dir}


def config_leaves(cls, prefix=()):
    """(key path, annotation) of every config key below the dataclass `cls`."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(hints[f.name]):
            yield from config_leaves(hints[f.name], prefix + (f.name,))
        else:
            yield prefix + (f.name,), hints[f.name]


def json_leaves(obj, prefix=()):
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from json_leaves(value, prefix + (key,))
        else:
            yield prefix + (key,)


def replace_leaf(config, path, value):
    if len(path) == 1:
        return dataclasses.replace(config, **{path[0]: value})
    section = getattr(config, path[0])
    return dataclasses.replace(config, **{path[0]: replace_leaf(section, path[1:], value)})


# values the generic rule in `changed` cannot derive
CHANGED = {("filter", "mode"): "INTENT_CONFIDENCE",
           ("filter", "slot_comparison"): "TYPES_AND_VALUES"}


def changed(path, hint, value):
    """A valid value of type `hint` different from `value`."""
    if path in CHANGED:
        return CHANGED[path]
    if value is None:
        return 0.5 if float in typing.get_args(hint) else "other.tsv"
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2
    if isinstance(value, str):
        return value + "2"
    if isinstance(value, frozenset):
        return value | {"Other"}
    if isinstance(value, tuple) and typing.get_args(hint)[-1] is Ellipsis:
        return value[:-1] if value else ("other.tsv",)
    return (value[0] / 2,) + value[1:]


class TestConfigSchema:
    # the fingerprints these configs had before the schema was derived from the
    # dataclasses; stage reports written since then must stay comparable
    GOLDEN = {
        "toytask": "98167a98402d52618cad50cc402ecde4eb3ff211e040c3b4008cc124c6697cec",
        "nondefault_forward_file":
            "0049f8352ae1cc261ae986d474087b3dfca6113a06df6b2349a9f634e482faa4",
        "nondefault_backward_file":
            "d7f083edce1a4f7b722336c6a10c07bba1092a641002c9b600909bc2bb87f2e8",
    }

    def test_golden_fingerprints(self):
        assert toytask_config("/ws").fingerprint() == self.GOLDEN["toytask"]
        assert nondefault_config("/ws", True).fingerprint() == \
            self.GOLDEN["nondefault_forward_file"]
        assert nondefault_config("/ws", False).fingerprint() == \
            self.GOLDEN["nondefault_backward_file"]

    def test_loader_builds_the_golden_configs(self, tmp_path):
        loaded = load_pipeline_config(toytask.build_workspace(tmp_path))
        assert loaded == toytask_config(tmp_path)
        for forward_file in (True, False):
            expected = nondefault_config(tmp_path, forward_file)
            for key in ("source_corpus", "test_corpus"):
                (tmp_path / getattr(expected, key)).touch()
            for path in expected.catalogs + expected.source_catalogs + tuple(
                    v for v in vars(expected.translation).values()
                    if isinstance(v, str)):
                (tmp_path / path).touch()
            p = tmp_path / "nondefault.json"
            p.write_text(json.dumps(as_file(expected)), encoding="utf-8")
            assert load_pipeline_config(str(p)) == expected

    def test_every_key_is_effective_and_fingerprinted(self):
        base = PipelineConfig(out_dir="o", stages=("train", "evaluate"),
                              source_corpus="x", test_corpus="y")
        leaves = [(path, hint) for path, hint in config_leaves(PipelineConfig)
                  if path != ("out_dir",)]
        assert {path for path, _ in leaves} == set(json_leaves(base.effective()))
        seen = {base.fingerprint()}
        for path, hint in leaves:
            value = changed(path, hint, functools.reduce(getattr, path, base))
            variant = replace_leaf(base, path, value)
            effective = functools.reduce(dict.__getitem__, path, variant.effective())
            assert effective == functools.reduce(dict.__getitem__, path, as_file(variant))
            assert effective != functools.reduce(dict.__getitem__, path, base.effective()), path
            assert variant.fingerprint() not in seen, path
            seen.add(variant.fingerprint())


class TestStageSeed:
    def test_deterministic_and_distinct(self):
        assert stage_seed(7, "postprocess") == stage_seed(7, "postprocess")
        assert stage_seed(7, "postprocess") != stage_seed(8, "postprocess")
        assert stage_seed(7, "postprocess") != stage_seed(7, "translate")

    def test_postprocess_draws_from_its_stage_seed(self, tmp_path):
        config_path = toytask.build_workspace(tmp_path, config_update={
            "stages": ["translate", "project", "postprocess"]})
        config = load_pipeline_config(config_path)
        assert config.seed == 7
        run_pipeline(config)
        out = tmp_path / "out"
        written = (out / "corpus_postprocessed.tsv").read_text(encoding="utf-8").splitlines()
        projected = load_corpus(str(out / "corpus_projected.tsv"))
        source = load_corpus(config.source_corpus)
        catalogs = load_catalogs(config.catalogs)

        def postprocessed(seed):
            return [serialize_utterance(u) for u in combined_postprocess(
                projected, source, catalogs, config.postprocess, seed)]

        assert written == postprocessed(stage_seed(7, "postprocess"))
        assert written != postprocessed(7)


class TestFullRun:
    def test_all_stages(self, tmp_path):
        config_path = toytask.build_workspace(tmp_path, n_train=120, n_test=40)
        result = run_config(config_path)
        assert [r.stage for r in result.stage_reports] == list(STAGES)

        # nothing is lost on a clean bijective task
        semantic = next(r for r in result.stage_reports if r.stage == "filter-semantic")
        assert semantic.removed == {}
        initial = result.stage_reports[0].input_count
        removed_total = sum(
            sum(r.removed.values()) for r in result.stage_reports
        )
        assert initial - removed_total == len(result.corpus)

        out = tmp_path / "out"
        for name in [
            "translations.tsv", "corpus_projected.tsv", "corpus_semantic.tsv",
            "corpus_scored.tsv", "corpus_postprocessed.tsv", "crf_model.json",
            "intent_model.json", "semer_report.tsv", "hypotheses.tsv",
            "stage_reports.tsv", "effective_config.json",
        ]:
            assert (out / name).exists(), name
        assert read_semer_report(str(out / "semer_report.tsv")) == result.semer_report

        # the projected corpus is the suffixed source corpus; projection keeps
        # the source id
        projected = load_corpus(str(out / "corpus_projected.tsv"))
        source = load_corpus(str(tmp_path / "train.tsv"))
        for src, tgt in zip(source, projected):
            assert tgt.tokens == toytask.translate_tokens(src.tokens)
            assert tgt.id == src.id

        # the model learns the small clean task reasonably well
        assert result.semer_report.overall.intent_errors == 0
        assert result.semer_report.overall.semer < 0.15

    def test_train_evaluate_only(self, tmp_path):
        config_path = toytask.build_workspace(tmp_path, config_update={
            "stages": ["train", "evaluate"],
            "source_corpus": None, "test_corpus": None,
        })
        # train directly on an annotated corpus in the target language
        root = tmp_path
        import mtnlu.corpus as corpus_mod

        train = toytask.sample_target_test(100, 3)
        test = toytask.sample_target_test(30, 4)
        corpus_mod.save_corpus(train, root / "target_train.tsv")
        corpus_mod.save_corpus(test, root / "target_test.tsv")
        config = json.loads((root / "config.json").read_text())
        config["source_corpus"] = str(root / "target_train.tsv")
        config["test_corpus"] = str(root / "target_test.tsv")
        (root / "config.json").write_text(json.dumps(config), encoding="utf-8")

        result = run_config(str(root / "config.json"))
        assert [r.stage for r in result.stage_reports] == ["train", "evaluate"]
        assert result.semer_report is not None
        assert not (root / "out" / "translations.tsv").exists()

    def test_evaluate_reuses_models_from_disk(self, tmp_path):
        config_path = toytask.build_workspace(tmp_path, n_train=80, n_test=25)
        full = run_config(config_path)
        evaluate_only = run_config(config_path, stages=["evaluate"])
        assert evaluate_only.semer_report == full.semer_report

    def test_evaluate_without_models_fails_before_any_stage(self, tmp_path):
        config_path = toytask.build_workspace(
            tmp_path, config_update={"out_dir": "fresh"}
        )
        with pytest.raises(ConfigError, match="no trained model .*crf_model.json"):
            run_config(config_path, stages=["evaluate"])
        assert not (tmp_path / "fresh" / "stage_reports.tsv").exists()

    def test_stage_failure_writes_partial_report(self, tmp_path, monkeypatch):
        fail_postprocess(monkeypatch)
        config_path = toytask.build_workspace(tmp_path, config_update={
            "stages": ["postprocess"],
            "out_dir": "pout",
        })
        with pytest.raises(StageFailure, match="postprocess"):
            run_config(config_path)
        report = (tmp_path / "pout" / "stage_reports.tsv").read_text()
        assert "# failed\tpostprocess" in report

    def test_evaluate_keeps_the_pipeline_stage_rows(self, tmp_path):
        config_path = toytask.build_workspace(tmp_path, n_train=80, n_test=25)
        run_config(config_path)
        report = tmp_path / "out" / "stage_reports.tsv"
        full = report.read_text().splitlines()
        evaluate_only = run_config(config_path, stages=["evaluate"])
        lines = report.read_text().splitlines()
        assert lines[:-1] == full[:-1]
        evaluate_row = lines[-1].split("\t")
        assert evaluate_row[:4] == full[-1].split("\t")[:4]
        assert evaluate_row[4] == evaluate_only.stage_reports[0].fingerprint
        assert evaluate_row[4] != full[-1].split("\t")[4]
        # rerunning the whole pipeline in the same directory rewrites the same bytes
        run_config(config_path)
        assert report.read_text().splitlines() == full

    def test_failures_are_kept_until_their_stage_runs_again(self, tmp_path, monkeypatch):
        fail_postprocess(monkeypatch)
        config_path = toytask.build_workspace(tmp_path, n_train=40, n_test=10)
        report = tmp_path / "out" / "stage_reports.tsv"

        def first_cells():
            return [line.split("\t")[:2] for line in report.read_text().splitlines()]

        with pytest.raises(StageFailure, match="postprocess"):
            run_config(config_path, stages=["postprocess"])
        # the score filter fails inside the stage on a translations file that
        # lacks an utterance
        run_config(config_path, stages=["translate"], out_dir=str(tmp_path / "t"))
        translations = tmp_path / "t" / "translations.tsv"
        lines = translations.read_text(encoding="utf-8").splitlines(keepends=True)
        (tmp_path / "partial.tsv").write_text("".join(lines[1:]), encoding="utf-8")
        config = json.loads(Path(config_path).read_text())
        config["translation"] = {"forward_translations": "partial.tsv"}
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps(config), encoding="utf-8")
        with pytest.raises(StageFailure, match="filter-score"):
            run_config(str(partial), stages=["filter-score"])
        assert first_cells() == [["stage", "input"], ["# failed", "filter-score"],
                                 ["# failed", "postprocess"]]
        run_config(config_path, stages=["translate", "filter-score"])
        assert first_cells() == [["stage", "input"], ["translate", "40"],
                                 ["filter-score", "40"], ["# failed", "postprocess"]]

    def test_setup_reads_only_what_the_stages_use(self, tmp_path, monkeypatch):
        config_path = toytask.build_workspace(tmp_path, n_train=40, n_test=10)
        run_config(config_path, stages=["translate", "train"])

        def unused(*args):
            raise AssertionError("read %r" % (args,))

        calls = []
        monkeypatch.setattr(pipeline, "load_catalogs", unused)
        monkeypatch.setattr(pipeline, "load_phrase_table", unused)
        run_config(config_path, stages=["evaluate"])
        monkeypatch.setattr(pipeline, "load_translations",
                            lambda path: calls.append(path) or load_translations(path))
        config = json.loads(Path(config_path).read_text())
        config["translation"] = {"forward_translations": "out/translations.tsv"}
        p = tmp_path / "project.json"
        p.write_text(json.dumps(config), encoding="utf-8")
        run_config(str(p), stages=["project"])
        assert calls == [str(tmp_path / "out" / "translations.tsv")]

    # the stages, and the inputs a run of them reads in order: the source (S)
    # and test (T) corpus, the saved models (M), the target (C) and source (SC)
    # catalogs, the forward translations (F) and the backward phrase table (B)
    @pytest.mark.parametrize("stages, reads", [
        (["translate"], "S F"),
        (["project"], "S F"),
        (["filter-semantic"], "S SC B F"),
        (["filter-score"], "S F"),
        (["postprocess"], "S C"),
        (["train"], "S C"),
        (["evaluate"], "T M"),
        (list(STAGES), "S T C SC F B"),
        (["train", "evaluate"], "S T C"),
        (["translate", "project"], "S F"),
    ], ids=lambda v: ",".join(v) if isinstance(v, list) else v)
    def test_setup_reads_what_the_stages_read(self, tmp_path, monkeypatch, stages, reads):
        config_path = toytask.build_workspace(tmp_path, n_train=20, n_test=5)
        corpus = load_corpus(tmp_path / "train.tsv")
        save_translations(toytask.forward_results(corpus)[0], tmp_path / "forward.tsv")
        obj = json.loads(Path(config_path).read_text())
        obj["translation"] = {"forward_translations": "forward.tsv",
                              "backward_phrase_table": "phrases_backward.tsv"}
        obj["stages"] = stages
        (tmp_path / "config.json").write_text(json.dumps(obj), encoding="utf-8")
        config = load_pipeline_config(config_path)
        names = {
            str(tmp_path / "train.tsv"): "S", str(tmp_path / "test.tsv"): "T",
            str(tmp_path / "out"): "M", config.catalogs: "C", config.source_catalogs: "SC",
            str(tmp_path / "forward.tsv"): "F", str(tmp_path / "phrases_backward.tsv"): "B",
        }
        calls = []

        def record(function):
            def read(what, *args):
                calls.append(names[what if isinstance(what, tuple) else str(what)])
                return function(what, *args)
            return read

        for name in ("load_corpus", "load_catalogs", "load_translations", "load_phrase_table"):
            monkeypatch.setattr(pipeline, name, record(getattr(pipeline, name)))
        monkeypatch.setattr(pipeline, "_load_models", record(lambda out: (None, None)))
        pipeline._setup(config)
        assert " ".join(calls) == reads

    def test_score_filter_threshold_drops_utterances(self, tmp_path):
        config_path = toytask.build_workspace(tmp_path, config_update={
            "filter": {"mode": "INTENT", "score_multiplier": 0.5},
            "stages": ["translate", "project", "filter-score"],
        })
        result = run_config(config_path)
        score_stage = result.stage_reports[-1]
        assert score_stage.removed.get("BELOW_THRESHOLD", 0) > 0
        assert score_stage.output_count < score_stage.input_count

    def test_translations_file_feeds_later_stages(self, tmp_path):
        # first run only translate, then consume its output file
        config_path = toytask.build_workspace(tmp_path, config_update={
            "stages": ["translate"],
        })
        run_config(config_path)
        translations = str(tmp_path / "out" / "translations.tsv")

        config = json.loads((tmp_path / "config.json").read_text())
        config["stages"] = ["project", "train", "evaluate"]
        config["translation"] = {"forward_translations": translations}
        config["out_dir"] = "out2"
        p2 = tmp_path / "config2.json"
        p2.write_text(json.dumps(config), encoding="utf-8")
        result = run_config(str(p2))
        assert [r.stage for r in result.stage_reports] == ["project", "train", "evaluate"]
        assert result.semer_report is not None

    def test_same_config_twice_is_byte_identical(self, tmp_path):
        config_path = toytask.build_workspace(tmp_path, n_train=80, n_test=25)
        run_config(config_path, out_dir=str(tmp_path / "a"))
        run_config(config_path, out_dir=str(tmp_path / "b"))
        assert_same_files(tmp_path / "a", tmp_path / "b")

    def test_hash_seed_and_blas_threads_change_no_output(self, tmp_path):
        # City in both post-processing sets runs the mix path: retained
        # values are source words, redrawn ones come from the _de catalog
        config_path = toytask.build_workspace(tmp_path, n_train=80, n_test=25, config_update={
            "postprocess": {"resample_slots": ["City"], "retain_original_slots": ["City"],
                            "mix_probability": 0.3}})
        src = str(Path(mtnlu.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for name, hashseed, threads in [("a", "1", "1"), ("b", "2", "2")]:
            env = dict(os.environ, PYTHONHASHSEED=hashseed, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=path)
            proc = subprocess.run([sys.executable, "-m", "mtnlu.cli", "pipeline", "--config",
                                   config_path, "--out", str(tmp_path / name)],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
        cities = {s.value for u in load_corpus(tmp_path / "a" / "corpus_postprocessed.tsv")
                  for s in u.slots if s.slot_type == "City"}
        assert {c.endswith("_de") for c in cities} == {True, False}
        assert_same_files(tmp_path / "a", tmp_path / "b")

    def test_a_crf_of_more_than_10000_weights_does_not_depend_on_blas_threads(self, tmp_path,
                                                                               monkeypatch):
        # large-catalog (the benchmark's generator, at full size and seed 2)
        # trains a CRF just over OpenBLAS's 10,000-entry threading threshold
        # for a dot.  On a one-CPU runner both runs get one thread and this
        # cannot fail.
        spec = importlib.util.spec_from_file_location(
            "pipebench_workloads",
            Path(__file__).resolve().parent.parent / "pipebench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
        spec.loader.exec_module(workloads)
        config_path = workloads.generate("large-catalog", "full", tmp_path / "in", 2).config
        src = str(Path(mtnlu.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        models = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=path)
            out = tmp_path / threads
            proc = subprocess.run([sys.executable, "-m", "mtnlu.cli", "pipeline", "--config",
                                   str(config_path), "--out", str(out)],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            models.append((out / "crf_model.json").read_bytes())
        model = json.loads(models[0])
        labels = len(model["labels"])
        assert len(model["features"]) * labels + labels * labels > 10_000
        assert models[0] == models[1]

    def test_byte_order_marks_change_no_output(self, tmp_path):
        config_path = toytask.build_workspace(tmp_path, n_train=40, n_test=10)
        run_config(config_path, out_dir=str(tmp_path / "plain"))
        inputs = sorted(tmp_path.glob("*.tsv")) + [tmp_path / "config.json"]
        for path in inputs:  # corpora, catalogs, grammars, phrase tables, config
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        run_config(config_path, out_dir=str(tmp_path / "marked"))
        assert_same_files(tmp_path / "plain", tmp_path / "marked")

    def test_the_languages_only_label_the_run(self, tmp_path):
        # they reach the effective config and, through its fingerprint, the
        # stage reports; no stage reads them
        config_path = toytask.build_workspace(tmp_path, n_train=40, n_test=10)
        run_config(config_path, out_dir=str(tmp_path / "a"))
        config = json.loads(Path(config_path).read_text(encoding="utf-8"))
        config.update(source_language="fr", target_language="it")
        Path(config_path).write_text(json.dumps(config), encoding="utf-8")
        run_config(config_path, out_dir=str(tmp_path / "b"))
        assert toytask.differing_files(tmp_path / "a", tmp_path / "b") \
            == {"effective_config.json", "stage_reports.tsv"}


class TestReleasedInputs:
    def test_each_input_is_dropped_after_its_last_reader(self, tmp_path, monkeypatch):
        reads, makes, handler, files = pipeline._STAGES["filter-score"]
        seen = []

        def spy(config, state):
            seen.append((state.source_catalogs, state.backward, bool(state.translations)))
            return handler(config, state)

        monkeypatch.setitem(pipeline._STAGES, "filter-score", (reads, makes, spy, files))
        result = run_config(toytask.build_workspace(tmp_path, n_train=30, n_test=10))
        assert seen == [({}, None, True)]  # filter-score is the last to read translations
        # the returned state keeps what the CLI and the tests read
        assert (result.source, result.test, result.translations, result.catalogs,
                result.source_catalogs, result.forward, result.backward) == (
            [], [], {}, {}, {}, None, None)
        assert result.corpus and result.crf and result.maxent and result.semer_report
        assert [r.stage for r in result.stage_reports] == list(STAGES)

    def test_per_entry_records_have_no_instance_dict(self):
        scores = TranslationScores(0.0, 0.0, 0.0, 0.0, 0.0)
        for record in (CatalogEntry(("a",), 1.0), SlotSpan("City", 0, 1, "a"),
                       Utterance("u1", "d", "i", ("a",)), scores,
                       TranslationResult(("a",), frozenset(), scores)):
            assert not hasattr(record, "__dict__"), type(record).__name__


class TestStageFiles:
    """`run_pipeline` writes every file of a run; no stage handler touches one."""

    def test_handlers_leave_the_output_directory_as_it_was(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        changed = []

        def listing():
            return {p.name: p.read_bytes() for p in out.iterdir()}

        for stage, (reads, makes, handler, files) in list(pipeline._STAGES.items()):
            def checked(*args, stage=stage, handler=handler):
                before = listing()
                result = handler(*args)
                if listing() != before:
                    changed.append(stage)
                return result

            monkeypatch.setitem(pipeline._STAGES, stage, (reads, makes, checked, files))
        run_config(toytask.build_workspace(tmp_path, n_train=40, n_test=10))
        assert changed == []
        written = set(listing())
        assert written == set().union(RUN_FILES, *readme_stage_files().values())
        assert len(written) == 16

    def test_a_failed_stage_writes_none_of_its_files(self, tmp_path, monkeypatch):
        def failing_score_filter(*args):
            raise ValueError("score filter failed")

        monkeypatch.setattr(pipeline, "score_filter", failing_score_filter)
        config_path = toytask.build_workspace(tmp_path, n_train=40, n_test=10)
        assert main(["pipeline", "--config", config_path]) == 2
        out = tmp_path / "out"
        lines = (out / "stage_reports.tsv").read_text(encoding="utf-8").splitlines()
        assert [line.split("\t")[0] for line in lines] == [
            "stage", "translate", "project", "filter-semantic", "# failed"]
        assert lines[-1] == "# failed\tfilter-score\tscore filter failed"
        assert not (out / "score_stats.tsv").exists()
        assert not (out / "corpus_scored.tsv").exists()

    def test_each_stage_writes_the_files_in_the_readme_table(self, tmp_path):
        config_path = Path(toytask.build_workspace(tmp_path, n_train=40, n_test=10))
        out = tmp_path / "out"
        table = readme_stage_files()
        assert list(table) == list(STAGES)
        for stage in STAGES:
            for p in out.glob("*"):  # a file this stage writes gets a new mtime
                os.utime(p, ns=(0, 0))
            run_config(config_path, stages=[stage])
            written = {p.name for p in out.iterdir() if p.stat().st_mtime_ns}
            assert written == table[stage] | RUN_FILES, stage
            if stage == "translate":  # the later stages read what it wrote
                config = json.loads(config_path.read_text(encoding="utf-8"))
                del config["translation"]["forward_phrase_table"]
                config["translation"]["forward_translations"] = str(out / "translations.tsv")
                config_path.write_text(json.dumps(config), encoding="utf-8")


def test_convergence_warnings_name_their_stage(tmp_path, caplog):
    config_path = toytask.build_workspace(tmp_path, n_train=30, n_test=10, config_update={
        "filter": {"mode": "INTENT_SLOTS"}, "training": {"max_iterations": 1}})
    with caplog.at_level(logging.WARNING, logger="mtnlu.nlu.optim"):
        run_config(config_path)
    assert [r.getMessage().split(" did not converge")[0] for r in caplog.records] == [
        "CRF slot tagger (stage filter-semantic)",
        "MaxEnt intent classifier (stage filter-semantic)",
        "CRF slot tagger (stage train)",
        "MaxEnt intent classifier (stage train)",
    ]


def test_semantic_removals_keep_source_order_with_and_without_project(tmp_path):
    # the backward file misses utterances 1, 6, 11, ... and flips the intent
    # carrier of 3, 8, 13, ..., so the removal reasons alternate; the forward
    # file misses 4, 9, 14, ..., which the filter alone removes before it
    # translates back, and which the project stage removes in the other run
    config_path = toytask.build_workspace(tmp_path, n_train=40, n_test=10, config_update={
        "translation": {"forward_phrase_table": None, "backward_phrase_table": None,
                        "forward_translations": "forward.tsv",
                        "backward_translations": "backward.tsv"}})
    source = load_corpus(tmp_path / "train.tsv")
    forward = toytask.forward_results(source)[0]
    save_translations({uid: forward[uid] for i, uid in enumerate(forward) if i % 5 != 4},
                      tmp_path / "forward.tsv")
    backward = {}
    for i, u in enumerate(source):
        tokens = list(u.tokens)
        if i % 5 == 1:
            continue
        if i % 5 == 3:
            carrier = toytask.INTENT_CARRIER[u.intent]
            tokens[tokens.index(carrier)] = toytask.CARRIER_SWAP[carrier]
        backward[u.id] = dataclasses.replace(toytask.word_for_word_result(u.id, tokens),
                                             target_tokens=tuple(tokens))
    save_translations(backward, tmp_path / "backward.tsv")
    position = {u.id: i for i, u in enumerate(source)}
    for out, argv, expected in (
        ("alone", ["filter", "--kind", "semantic"],
         {NO_TRANSLATION, NO_BACK_TRANSLATION, INTENT_MISMATCH}),
        ("projected", ["pipeline", "--stages", "project,filter-semantic"],
         {NO_BACK_TRANSLATION, INTENT_MISMATCH}),
    ):
        assert main(argv + ["--config", config_path, "--out", str(tmp_path / out)]) == 0
        removed = [line.split("\t") for line in
                   (tmp_path / out / "removed_semantic.tsv").read_text().splitlines()]
        indices = [position[uid] for uid, _ in removed]
        assert indices == sorted(indices)
        reasons = [reason for _, reason in removed]
        assert set(reasons) == expected
        assert sum(a != b for a, b in zip(reasons, reasons[1:])) >= 2  # interleaved
    assert (tmp_path / "alone" / "corpus_semantic.tsv").read_bytes() == \
        (tmp_path / "projected" / "corpus_semantic.tsv").read_bytes()


def test_a_full_run_projects_each_translated_utterance_once(tmp_path, monkeypatch):
    # filter-semantic checks the projections of the project stage instead of
    # translating and projecting the corpus again
    config_path = toytask.build_workspace(tmp_path, n_train=40, n_test=10)
    projected, project = [], filtering.project_annotations

    def counted(u, result):
        projected.append(u.id)
        return project(u, result)

    monkeypatch.setattr(filtering, "project_annotations", counted)
    run_config(config_path)
    translations = load_translations(tmp_path / "out" / "translations.tsv")
    assert translations
    assert sorted(projected) == sorted(translations)


class TestSourceSlotTagger:
    """filter-semantic trains a source slot tagger only for the filter mode
    that compares slots; the outputs are those of a run that always trains it."""

    @pytest.mark.parametrize("mode, trainings", [
        ("INTENT", 1), ("INTENT_CONFIDENCE", 1), ("INTENT_SLOTS", 2),
    ])
    def test_trained_only_when_the_filter_reads_slots(self, tmp_path, monkeypatch,
                                                      mode, trainings):
        config_path = toytask.build_workspace(
            tmp_path, n_train=50, n_test=15, config_update={"filter": {"mode": mode}})
        calls = []
        monkeypatch.setattr(pipeline, "train_slot_tagger",
                            lambda *args: calls.append(args) or train_slot_tagger(*args))
        run_config(config_path, out_dir=str(tmp_path / "lean"))
        assert len(calls) == trainings

        config = load_pipeline_config(config_path)
        source_tagger = train_slot_tagger(
            load_corpus(config.source_corpus),
            config.training, load_catalogs(config.source_catalogs))

        checks = []

        def always_with_tagger(projection, corpus, backward, source_nlu, *args, **kwargs):
            checks.append(projection)
            return roundtrip_check(projection, corpus, backward,
                                   (source_tagger, source_nlu[1]), *args, **kwargs)

        monkeypatch.setattr(pipeline, "roundtrip_check", always_with_tagger)
        run_config(config_path, out_dir=str(tmp_path / "tagged"))
        assert len(checks) == 1  # the run checked its projections through the patch
        assert_same_files(tmp_path / "lean", tmp_path / "tagged")
