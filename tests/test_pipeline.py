"""Config handling and staged execution."""

import json

import pytest

import toytask
from mtnlu.corpus import load_corpus
from mtnlu.errors import ConfigError
from mtnlu.pipeline import (
    STAGES,
    PipelineConfig,
    StageFailure,
    TranslatorSpec,
    load_pipeline_config,
    run_pipeline,
    stage_seed,
)
from mtnlu.semer import read_semer_report


def run_config(path, **overrides):
    return run_pipeline(load_pipeline_config(path, **overrides))


class TestConfigLoading:
    def test_defaults_and_overrides(self, tmp_path):
        config_path = toytask.build_workspace(tmp_path)
        config = load_pipeline_config(config_path)
        assert config.seed == 7
        assert config.stages == STAGES
        assert config.out_dir == str(tmp_path / "out")
        assert config.max_jump == 0 and config.beam_size == 100
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
        ],
    )
    def test_rejected(self, tmp_path, update, message):
        config_path = toytask.build_workspace(tmp_path, n_train=4, n_test=2, config_update=update)
        with pytest.raises(ConfigError, match=message):
            load_pipeline_config(config_path)

    def test_numbers_accepted(self, tmp_path):
        config_path = toytask.build_workspace(tmp_path, n_train=4, n_test=2, config_update={
            "seed": 3,
            "translation": {"weights": [1, 0.5, 2, 0], "max_jump": 1, "beam_size": 7,
                            "lm_alpha": 1},
            "postprocess": {"mix_probability": 1},
        })
        config = load_pipeline_config(config_path)
        assert config.seed == 3
        assert config.weights == (1, 0.5, 2, 0)
        assert (config.max_jump, config.beam_size) == (1, 7)
        assert config.lm_alpha == 1.0 and isinstance(config.lm_alpha, float)
        assert config.mix_probability == 1.0 and isinstance(config.mix_probability, float)


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
                source_corpus="x", forward=TranslatorSpec(phrase_table="pt"),
            )

    def test_evaluate_requires_test_corpus(self):
        with pytest.raises(ConfigError, match="test_corpus"):
            PipelineConfig(out_dir="o", stages=("evaluate",))

    def test_source_corpus_required_for_training(self):
        with pytest.raises(ConfigError, match="source_corpus"):
            PipelineConfig(out_dir="o", stages=("train",))

    def test_both_file_and_table_rejected(self):
        with pytest.raises(ConfigError, match="not both"):
            TranslatorSpec(translations="a", phrase_table="b").validate("forward")


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
            {"mix_probability": 0.25},
            {"resample_slots": ("City",)},
            {"retain_original_slots": ("Song",)},
            {"catalogs": ("c.tsv",)},
            {"source_catalogs": ("s.tsv",)},
            {"weights": (1.0, 1.0, 1.0, 0.0)},
            {"max_jump": 1},
            {"beam_size": 10},
            {"lm_alpha": 0.2},
        ]
        seen = {reference}
        for change in variants:
            fp = PipelineConfig(**{**self.base(), **change}).fingerprint()
            assert fp not in seen, change
            seen.add(fp)

    def test_filter_and_training_settings_are_fingerprinted(self):
        from mtnlu.filtering import FilterConfig
        from mtnlu.nlu import TrainingConfig

        a = PipelineConfig(**self.base())
        b = PipelineConfig(**self.base(), filter=FilterConfig(mode="INTENT_SLOTS"))
        c = PipelineConfig(**self.base(), training=TrainingConfig(l2=0.5))
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3


class TestStageSeed:
    def test_deterministic_and_distinct(self):
        assert stage_seed(7, "postprocess") == stage_seed(7, "postprocess")
        assert stage_seed(7, "postprocess") != stage_seed(8, "postprocess")
        assert stage_seed(7, "postprocess") != stage_seed(7, "translate")


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
        # the source id (the file format has no separate source_id column)
        projected = load_corpus(str(out / "corpus_projected.tsv"), "de")
        source = load_corpus(str(tmp_path / "train.tsv"), "en")
        for src, tgt in zip(source, projected):
            assert tgt.tokens == toytask.translate_tokens(src.tokens)
            assert tgt.id == src.id
        assert all(u.source_id is not None for u in result.corpus)

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

    def test_evaluate_without_models_fails_the_stage(self, tmp_path):
        config_path = toytask.build_workspace(
            tmp_path, config_update={"out_dir": "fresh"}
        )
        with pytest.raises(StageFailure, match="evaluate"):
            run_config(config_path, stages=["evaluate"])

    def test_stage_failure_writes_partial_report(self, tmp_path):
        # retention without projected source ids fails inside the stage
        config_path = toytask.build_workspace(tmp_path, config_update={
            "stages": ["postprocess"],
            "out_dir": "pout",
        })
        with pytest.raises(StageFailure, match="postprocess"):
            run_config(config_path)
        report = (tmp_path / "pout" / "stage_reports.tsv").read_text()
        assert "# failed\tpostprocess" in report

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
        files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name
