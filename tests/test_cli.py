"""Command-line interface: subcommands, exit codes, outputs."""

import dataclasses
import errno
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mtnlu
import test_pipeline
import toytask
from mtnlu import cli, pipeline
from mtnlu.cli import main
from mtnlu.corpus import load_catalogs, load_corpus, load_grammar, sample_grammar
from mtnlu.errors import MtnluError
from mtnlu.semer import SemerCounts, SemerReport, write_semer_report
from mtnlu.translate import load_translations, save_translations


def write_report(path, errors, reference_count=10000):
    counts = SemerCounts(reference_count=reference_count, substitutions=errors)
    write_semer_report(SemerReport(counts, {"All": counts}), str(path))
    return str(path)


class TestExitCodes:
    def test_missing_required_argument(self, capsys):
        assert main(["pipeline"]) == 1
        assert "required" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "pipeline" in capsys.readouterr().out

    def test_bad_stage_name(self, tmp_path, capsys):
        config = toytask.build_workspace(tmp_path)
        assert main(["pipeline", "--config", config, "--stages", "tokenize"]) == 1
        assert "unknown stage" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["pipeline", "--config", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("name, errno_", [("nope.json", errno.ENOENT), (".", errno.EISDIR)],
                             ids=["missing", "directory"])
    def test_unreadable_config_line_names_it(self, tmp_path, capsys, name, errno_):
        config = str(tmp_path / name)
        assert main(["pipeline", "--config", config]) == 1
        assert capsys.readouterr().err == \
            "error: %s: cannot read config: %s\n" % (config, os.strerror(errno_))

    def test_null_seed_exits_one(self, tmp_path, capsys):
        config = toytask.build_workspace(tmp_path, n_train=4, n_test=2,
                                         config_update={"seed": None})
        assert main(["pipeline", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err == "error: %s: seed must be an integer, got null\n" % config

    def test_fractional_beam_size_exits_one(self, tmp_path, capsys):
        config = toytask.build_workspace(tmp_path, n_train=4, n_test=2,
                                         config_update={"translation": {"beam_size": 1.7}})
        assert main(["pipeline", "--config", config]) == 1
        assert capsys.readouterr().err == \
            "error: %s: beam_size must be an integer, got 1.7\n" % config

    @pytest.mark.parametrize("update", [
        {"translation": []},
        {"filter": None},
        {"source_language": 5},
        {"filter": {"use_gold_labels": "no"}},
        {"postprocess": {"retain_original_slots": "City"}},
        {"training": {"max_iterations": 1.5}},
        {"training": {"max_iterations": True}},
        {"filter": {"confidence_threshold": True}},
        {"filter": {"score_multiplier": "1"}},
        {"postprocess": {"mix_probability": 1.5}},
        {"catalogs": ["catalog_tgt_city.tsv", "catalog_tgt_city.tsv"]},
    ])
    def test_ill_typed_config_exits_one_before_any_stage(self, tmp_path, capsys, update):
        config = toytask.build_workspace(tmp_path, n_train=4, n_test=2, config_update=update)
        assert main(["pipeline", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("corrupt, message", [
        (lambda data: data.replace(b"{", b'{"seed": 8,', 1), "repeated key 'seed'"),
        (lambda data: b"\xff" + data, "'utf-8' codec can't decode byte 0xff"),
        (lambda data: b"[" * 1000 + b"]" * 1000, "maximum recursion depth exceeded"),
    ], ids=["repeated-key", "leading-0xff", "nested-1000-deep"])
    def test_unreadable_config_names_the_file(self, tmp_path, capsys, corrupt, message):
        config = Path(toytask.build_workspace(tmp_path, n_train=4, n_test=2))
        config.write_bytes(corrupt(config.read_bytes()))
        assert main(["pipeline", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: %s: config is not valid JSON: " % config), err
        assert message in err and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    def test_missing_resample_catalog_exits_one_before_any_stage(self, tmp_path, capsys):
        config = toytask.build_workspace(tmp_path, n_train=4, n_test=2, config_update={
            "postprocess": {"resample_slots": ["Nowhere"]}})
        assert main(["pipeline", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err == "error: no catalog for resampled slot types: Nowhere\n"
        assert not (tmp_path / "out" / "stage_reports.tsv").exists()

    def test_missing_resample_catalog_is_no_error_without_postprocess(self, tmp_path, capsys):
        config = toytask.build_workspace(tmp_path, n_train=4, n_test=2, config_update={
            "postprocess": {"resample_slots": ["Nowhere"]}})
        assert main(["pipeline", "--config", config, "--stages", "train"]) == 0
        assert (tmp_path / "out" / "crf_model.json").exists()

    def test_stage_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        reads, makes, _, files = pipeline._STAGES["postprocess"]

        def failing_handler(config, state, out):
            raise ValueError("postprocess handler failed")

        monkeypatch.setitem(pipeline._STAGES, "postprocess", (reads, makes, failing_handler, files))
        config = toytask.build_workspace(tmp_path, config_update={
            "stages": ["postprocess"],
        })
        assert main(["pipeline", "--config", config]) == 2
        assert "postprocess" in capsys.readouterr().err

    @pytest.mark.parametrize("update, emptied", [
        ({"mode": "INTENT_CONFIDENCE", "confidence_threshold": 1.0},
         "filter-semantic removed all 30 (LOW_CONFIDENCE=30)"),
        ({"score_multiplier": 1e308}, "filter-score removed all 30 (BELOW_THRESHOLD=30)"),
    ], ids=["filter-semantic", "filter-score"])
    def test_a_filter_that_removes_every_utterance_exits_two_naming_it(self, tmp_path, capsys,
                                                                       update, emptied):
        config = toytask.build_workspace(tmp_path, n_train=30, n_test=10,
                                         config_update={"filter": update})
        assert main(["pipeline", "--config", config]) == 2
        failure = "no utterance left to train on: " + emptied
        assert capsys.readouterr().err == "error: stage train failed: %s\n" % failure
        rows = (tmp_path / "out" / "stage_reports.tsv").read_text(encoding="utf-8").splitlines()
        assert [r.split("\t")[0] for r in rows[1:-1]] == list(pipeline.STAGES[:5])
        assert rows[-1] == "# failed\ttrain\t" + failure

    def test_evaluate_without_models_exits_one(self, tmp_path, capsys):
        config = toytask.build_workspace(tmp_path)
        assert main(["evaluate", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no trained model ") and err.count("\n") == 1, err
        assert str(tmp_path / "out" / "crf_model.json") in err
        assert not (tmp_path / "out" / "stage_reports.tsv").exists()

    @pytest.mark.parametrize("corpus", ["train.tsv", "test.tsv"])
    def test_empty_corpus_exits_one_before_any_stage(self, tmp_path, capsys, corpus):
        config = toytask.build_workspace(tmp_path, n_train=4, n_test=2)
        (tmp_path / corpus).write_text("# no utterances\n\n", encoding="utf-8")
        assert main(["pipeline", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err == "error: %s: the corpus has no utterances\n" % (tmp_path / corpus)
        assert not (tmp_path / "out" / "stage_reports.tsv").exists()

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_empty_translations_file_exits_one_before_any_stage(self, tmp_path, capsys,
                                                                direction):
        (tmp_path / "empty.tsv").write_text("# no translations\n\n", encoding="utf-8")
        config = toytask.build_workspace(tmp_path, n_train=4, n_test=2, config_update={
            "translation": {direction + "_phrase_table": None,
                            direction + "_translations": "empty.tsv"}})
        assert main(["pipeline", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err == "error: %s: the translations file has no translations\n" % (
            tmp_path / "empty.tsv")
        assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def trained_models(tmp_path_factory):
    """A workspace whose output directory holds a trained model pair."""
    return toytask.train_model_pair(tmp_path_factory.mktemp("models"))


def _edit_json(edit):
    def probe(data: bytes) -> bytes:
        obj = json.loads(data)
        edit(obj)
        return json.dumps(obj).encode("utf-8")
    return probe


def _matrices(obj):
    return [obj[key] for key in ("emissions", "transitions", "weights") if key in obj]


def _names(obj):
    return obj["labels"] if "labels" in obj else obj["intents"]


def _rename_first(slot_type, intent):
    """Rename the first slot type in the labels, or the first intent."""
    def edit(obj):
        if "labels" in obj:
            old = obj["labels"][1][2:]
            obj["labels"] = [lab[:2] + slot_type if lab[2:] == old else lab
                             for lab in obj["labels"]]
        else:
            obj["intents"][0] = intent
    return _edit_json(edit)


def _add_name(label, intent):
    """Add a label or an intent, and a column of zeros (and for transitions
    a row too) to each matrix."""
    def edit(obj):
        _names(obj).append(label if "labels" in obj else intent)
        for matrix in _matrices(obj):
            for row in matrix:
                row.append(0.0)
        if "transitions" in obj:
            obj["transitions"].append([0.0] * len(obj["labels"]))
    return _edit_json(edit)


# (probe, corrupt the model file's bytes, what the error names, or that per file)
MODEL_FILE_PROBES = [
    ("array-root", lambda data: b"[" + data.strip() + b"]", "not a version-1"),
    ("truncated", lambda data: data[: len(data) // 2], "not a JSON file"),
    ("leading-0xff", lambda data: b"\xff" + data, "not a JSON file"),
    ("missing-l2", _edit_json(lambda obj: obj.pop("l2")), "missing key 'l2'"),
    ("l2-string", _edit_json(lambda obj: obj.update(l2="x")), "l2 must be a finite"),
    ("l2-negative", _edit_json(lambda obj: obj.update(l2=-1.0)), "l2 must be a finite"),
    ("gazetteers-int", _edit_json(lambda obj: obj.update(gazetteers=[3])),
     "gazetteers must be a list"),
    ("dropped-feature", _edit_json(lambda obj: obj["features"].pop(1)), "shape mismatch"),
    ("version-true", _edit_json(lambda obj: obj.update(version=True)), "not a version-1"),
    ("unknown-key", _edit_json(lambda obj: obj.update(comment="x")), "unknown key 'comment'"),
    # json.load alone would keep the last of the two values
    ("repeated-key", lambda data: data.replace(b"{", b'{"l2":7.0,', 1), "repeated key 'l2'"),
    ("repeated-name", _edit_json(lambda obj: _names(obj).__setitem__(1, _names(obj)[0])),
     {"crf_model.json": "label set repeats a label",
      "intent_model.json": "intent set repeats an intent"}),
    # numpy would read these as 1.0 and 0.0 in a list of floats
    ("first-matrix-true", _edit_json(lambda obj: _matrices(obj)[0][0].__setitem__(0, True)),
     {"crf_model.json": "emissions must be a list", "intent_model.json": "weights must be a list"}),
    ("last-matrix-false", _edit_json(lambda obj: _matrices(obj)[-1][-1].__setitem__(-1, False)),
     {"crf_model.json": "transitions must be a list",
      "intent_model.json": "weights must be a list"}),
    ("nested-100000-deep", lambda data: b"[" * 100000 + b"]" * 100000,
     "not a JSON file: maximum recursion depth exceeded"),
    # names that no corpus line can hold, so no trainer writes them
    ("empty-name", _rename_first("", ""),
     {"crf_model.json": "invalid slot type: ''", "intent_model.json": "invalid intent: ''"}),
    ("name-with-whitespace", _rename_first("new city", "Play\tMusic"),
     {"crf_model.json": "invalid slot type: 'new city'",
      "intent_model.json": "invalid intent: 'Play\\tMusic'"}),
    ("extra-name", _add_name("Q-ArtistName", " Extra"),
     {"crf_model.json": "bad BIO label 'Q-ArtistName'",
      "intent_model.json": "invalid intent: ' Extra'"}),
    ("repeated-slot-type",
     _edit_json(lambda obj: obj["gazetteers"].append(obj["gazetteers"][0])),
     "gazetteers repeat a slot type"),
]


@pytest.mark.parametrize("name", ["crf_model.json", "intent_model.json"])
@pytest.mark.parametrize("probe, corrupt, message", MODEL_FILE_PROBES,
                         ids=[p[0] for p in MODEL_FILE_PROBES])
def test_corrupted_model_file_exits_one(tmp_path, capsys, trained_models,
                                        name, probe, corrupt, message):
    config, models = trained_models
    out = tmp_path / "out"
    shutil.copytree(models, out)
    path = out / name
    path.write_bytes(corrupt(path.read_bytes()))
    capsys.readouterr()
    assert main(["evaluate", "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: " % path) and err.count("\n") == 1, err
    assert (message[name] if isinstance(message, dict) else message) in err
    assert "Traceback" not in err
    assert not (out / "semer_report.tsv").exists()


def test_stage_report_not_utf8_exits_one_before_any_stage(tmp_path, capsys, trained_models):
    config, models = trained_models
    out = tmp_path / "out"
    shutil.copytree(models, out)
    assert main(["evaluate", "--config", config, "--out", str(out)]) == 0
    report = out / "stage_reports.tsv"
    lines = report.read_bytes().count(b"\n")
    report.write_bytes(report.read_bytes() + b"\xff")
    evaluation = {name: (out / name).read_bytes()
                  for name in ("semer_report.tsv", "hypotheses.tsv")}
    capsys.readouterr()
    assert main(["evaluate", "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: %s:%d: byte 0xff is not UTF-8 (invalid start byte)\n" % (
        report, lines + 1)
    assert {name: (out / name).read_bytes() for name in evaluation} == evaluation


def test_bad_input_leaves_the_output_directory_as_it_was(tmp_path, capsys):
    config = toytask.build_workspace(tmp_path, n_train=30, n_test=10)
    assert main(["pipeline", "--config", config, "--stages", "translate,train"]) == 0
    test = tmp_path / "test.tsv"
    test.write_bytes(test.read_bytes() + b"\xff")
    out = tmp_path / "out"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["evaluate", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s:" % test) and err.count("\n") == 1, err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_catalog_total_past_the_float_maximum_exits_one_before_any_stage(tmp_path, capsys):
    # the post-processing stage resamples City from this catalog
    config = toytask.build_workspace(tmp_path, n_train=30, n_test=10)
    catalog = tmp_path / "catalog_tgt_city.tsv"
    lines = catalog.read_text(encoding="utf-8").splitlines()
    catalog.write_text("".join("%s\t1e308\n" % line.split("\t")[0] if i else line + "\n"
                               for i, line in enumerate(lines)), encoding="utf-8")
    assert main(["pipeline", "--config", config]) == 1
    assert capsys.readouterr().err == \
        "error: %s: catalog City has a total weight that is not finite\n" % catalog
    assert not (tmp_path / "out").exists()


def test_translation_totals_past_the_float_maximum_pass_the_score_filter(tmp_path):
    # each total is finite, but their sum in a domain is not
    config = toytask.build_workspace(tmp_path, n_train=30, n_test=10)
    results = toytask.forward_results(load_corpus(tmp_path / "train.tsv"))[0]
    save_translations({uid: dataclasses.replace(r, scores=dataclasses.replace(
        r.scores, weighted_total=1e308)) for uid, r in results.items()}, tmp_path / "forward.tsv")
    obj = json.loads(Path(config).read_text())
    obj["translation"] = {"forward_translations": "forward.tsv",
                          "backward_phrase_table": obj["translation"]["backward_phrase_table"]}
    obj["filter"]["score_multiplier"] = -1.0
    Path(config).write_text(json.dumps(obj), encoding="utf-8")
    assert main(["pipeline", "--config", config]) == 0
    rows = (tmp_path / "out" / "score_stats.tsv").read_text(encoding="utf-8").splitlines()[1:]
    assert rows and all(float(row.split("\t")[1]) > 1e307 for row in rows)


@pytest.mark.parametrize("argv", [
    ["translate"],
    ["project"],
    ["filter", "--kind", "semantic"],
    ["pipeline", "--stages", "translate,project"],
], ids=lambda argv: " ".join(argv))
def test_alignment_past_the_source_exits_one_before_any_stage(tmp_path, capsys, argv):
    config = toytask.build_workspace(tmp_path, n_train=30, n_test=10)
    assert main(["translate", "--config", config]) == 0
    lines = (tmp_path / "out" / "translations.tsv").read_text(encoding="utf-8").splitlines()
    fields = lines[1].split("\t")
    fields[2] = "0-0 99-0"  # the source utterance has fewer than 100 tokens
    lines[1] = "\t".join(fields)
    translations = tmp_path / "translations.tsv"
    translations.write_text("\n".join(lines) + "\n", encoding="utf-8")
    obj = json.loads((tmp_path / "config.json").read_text())
    obj["translation"] = {
        "forward_translations": str(translations),
        "backward_phrase_table": obj["translation"]["backward_phrase_table"],
        "max_jump": 0,
    }
    (tmp_path / "config.json").write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    assert main(argv + ["--config", config, "--out", str(tmp_path / "fout")]) == 1
    assert capsys.readouterr().err == (
        "error: %s: alignment source index 99 out of range for %s\n" % (translations, fields[0]))
    assert not (tmp_path / "fout").exists()


@pytest.mark.parametrize("argv, stages", [
    (["translate"], ["translate"]),
    (["project"], ["project"]),
    (["filter"], ["filter-semantic", "filter-score"]),
    (["filter", "--kind", "semantic"], ["filter-semantic"]),
    (["filter", "--kind", "score"], ["filter-score"]),
    (["filter", "--kind", "both"], ["filter-semantic", "filter-score"]),
    (["postprocess"], ["postprocess"]),
    (["train"], ["train"]),
    (["evaluate"], ["evaluate"]),
    (["pipeline"], None),
    (["pipeline", "--stages", "train, evaluate,"], ["train", "evaluate"]),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_run_commands_pass_their_stages(monkeypatch, capsys, argv, stages):
    calls = []

    def load(path, seed=None, stages=None, out_dir=None):
        calls.append((path, seed, stages, out_dir))
        raise MtnluError("stop")

    monkeypatch.setattr(cli, "load_pipeline_config", load)
    assert main(argv + ["--config", "c.json", "--seed", "3", "--out", "o"]) == 1
    assert calls == [("c.json", 3, stages, "o")]
    assert capsys.readouterr().err == "error: stop\n"


class TestRunCommands:
    def test_full_pipeline(self, tmp_path, capsys):
        config = toytask.build_workspace(tmp_path, n_train=80, n_test=25)
        assert main(["pipeline", "--config", config]) == 0
        out = capsys.readouterr().out
        for stage in ["translate", "project", "filter-semantic", "filter-score",
                      "postprocess", "train", "evaluate"]:
            assert stage in out
        assert "semer overall" in out
        assert (tmp_path / "out" / "semer_report.tsv").exists()

    def test_stage_selection(self, tmp_path, capsys):
        config = toytask.build_workspace(tmp_path, n_train=60, n_test=20)
        assert main(["pipeline", "--config", config,
                     "--stages", "translate,project"]) == 0
        out = capsys.readouterr().out
        assert "translate" in out and "project" in out and "train" not in out

    def test_translate_and_project_record_their_removals(self, tmp_path, capsys):
        config = toytask.build_workspace(tmp_path, n_train=20, n_test=5)
        corpus = load_corpus(tmp_path / "train.tsv")
        results, _ = toytask.forward_results(corpus)
        unaligned, missing = corpus[1], corpus[3]
        del results[missing.id]
        slot = unaligned.slots[0]
        results[unaligned.id] = dataclasses.replace(results[unaligned.id], alignment=frozenset(
            (i, i) for i in range(len(unaligned.tokens)) if not slot.start <= i < slot.end))
        save_translations(results, tmp_path / "forward.tsv")
        obj = json.loads(Path(config).read_text())
        obj["translation"] = {"forward_translations": "forward.tsv"}
        Path(config).write_text(json.dumps(obj), encoding="utf-8")

        assert main(["project", "--config", config]) == 0
        out = tmp_path / "out"
        assert (out / "removed_project.tsv").read_text().splitlines() == [
            "%s\tUNALIGNED_SLOT" % unaligned.id, "%s\tNO_TRANSLATION" % missing.id]
        row = (out / "stage_reports.tsv").read_text().splitlines()[1].split("\t")
        assert row[:4] == ["project", "20", "18", "NO_TRANSLATION=1,UNALIGNED_SLOT=1"]

        capsys.readouterr()
        assert main(["translate", "--config", config]) == 0
        assert "translate: 20 -> 19 removed[NO_TRANSLATION=1]" in capsys.readouterr().out
        translated = load_translations(out / "translations.tsv")
        assert sorted(translated) == sorted(u.id for u in corpus if u is not missing)

    def test_translate_standalone(self, tmp_path):
        config = toytask.build_workspace(tmp_path)
        assert main(["translate", "--config", config]) == 0
        assert (tmp_path / "out" / "translations.tsv").exists()

    def test_filter_standalone_consumes_translation_file(self, tmp_path):
        config = toytask.build_workspace(tmp_path, n_train=60, n_test=20)
        assert main(["translate", "--config", config]) == 0
        obj = json.loads((tmp_path / "config.json").read_text())
        obj["translation"] = {
            "forward_translations": str(tmp_path / "out" / "translations.tsv"),
            "backward_phrase_table": obj["translation"]["backward_phrase_table"],
            "max_jump": 0,
        }
        p2 = tmp_path / "config2.json"
        p2.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["filter", "--config", str(p2), "--kind", "semantic",
                     "--out", str(tmp_path / "fout")]) == 0
        assert (tmp_path / "fout" / "corpus_semantic.tsv").exists()

    def test_train_then_evaluate(self, tmp_path):
        root = tmp_path
        toytask.write_task_files(root)
        train = toytask.sample_target_test(80, 3)
        test = toytask.sample_target_test(25, 4)
        from mtnlu.corpus import save_corpus

        save_corpus(train, root / "t_train.tsv")
        save_corpus(test, root / "t_test.tsv")
        config = {
            "out_dir": "out",
            "source_corpus": "t_train.tsv",
            "test_corpus": "t_test.tsv",
            "training": {"l2": 0.001, "max_iterations": 60, "tolerance": 1e-6},
        }
        p = root / "c.json"
        p.write_text(json.dumps(config), encoding="utf-8")
        assert main(["train", "--config", str(p)]) == 0
        assert main(["evaluate", "--config", str(p)]) == 0
        assert (root / "out" / "semer_report.tsv").exists()

    def test_seed_override_changes_outputs(self, tmp_path):
        config = toytask.build_workspace(tmp_path, config_update={
            "stages": ["translate", "project", "postprocess"],
        })
        assert main(["pipeline", "--config", config,
                     "--out", str(tmp_path / "s1"), "--seed", "1"]) == 0
        assert main(["pipeline", "--config", config,
                     "--out", str(tmp_path / "s2"), "--seed", "2"]) == 0
        a = (tmp_path / "s1" / "corpus_postprocessed.tsv").read_bytes()
        b = (tmp_path / "s2" / "corpus_postprocessed.tsv").read_bytes()
        assert a != b  # City slots are resampled from a seed-derived stream


class TestCompare:
    def test_table_output(self, tmp_path, capsys):
        a = write_report(tmp_path / "a.tsv", 2138)
        b = write_report(tmp_path / "b.tsv", 2072)
        assert main(["compare", a, b]) == 0
        out = capsys.readouterr().out
        assert "overall\t-\t21.38\t20.72 (-3.09)" in out

    def test_optional_file_output(self, tmp_path, capsys):
        a = write_report(tmp_path / "a.tsv", 2138)
        b = write_report(tmp_path / "b.tsv", 2362)
        table = str(tmp_path / "table.tsv")
        assert main(["compare", a, b, "--out", table]) == 0
        assert "20.72" not in Path(table).read_text()
        assert "23.62 (+10.48)" in Path(table).read_text()

    def test_mismatched_reports_exit_one(self, tmp_path, capsys):
        a = write_report(tmp_path / "a.tsv", 10)
        b = write_report(tmp_path / "b.tsv", 10, reference_count=9999)
        assert main(["compare", a, b]) == 1
        assert "different test sets" in capsys.readouterr().err

    @pytest.mark.parametrize("count, message", [
        ("1_0", "bad count '1_0'"),
        ("x", "bad count 'x'"),
        ("-1", "reference_count must be >= 0"),
    ], ids=["underscore", "letter", "negative"])
    def test_bad_count_exits_one_naming_its_line(self, tmp_path, capsys, count, message):
        a = write_report(tmp_path / "a.tsv", 10)
        b = Path(write_report(tmp_path / "b.tsv", 10))
        header, overall, rest = b.read_text(encoding="utf-8").split("\n", 2)
        cells = overall.split("\t")
        cells[2] = count  # the reference count
        b.write_text("\n".join([header, "\t".join(cells), rest]), encoding="utf-8")
        assert main(["compare", a, str(b)]) == 1
        assert capsys.readouterr().err == "error: %s:2: %s\n" % (b, message)

    def test_unknown_segment_exits_one_naming_its_line(self, tmp_path, capsys):
        a = write_report(tmp_path / "a.tsv", 10)
        b = Path(write_report(tmp_path / "b.tsv", 10))
        b.write_text(b.read_text(encoding="utf-8").replace("domain\t", "region\t"),
                     encoding="utf-8")
        assert main(["compare", a, str(b)]) == 1
        assert capsys.readouterr().err == "error: %s:3: unknown segment 'region'\n" % b

    def test_domain_sizes_that_differ_exit_one(self, tmp_path, capsys):
        paths = []
        for name, sizes in [("a.tsv", (6000, 4000)), ("b.tsv", (5000, 5000))]:
            x, y = (SemerCounts(reference_count=size) for size in sizes)
            write_semer_report(SemerReport(x + y, {"X": x, "Y": y}), str(tmp_path / name))
            paths.append(str(tmp_path / name))
        assert main(["compare", *paths]) == 1
        assert capsys.readouterr().err == (
            "error: reports describe different test sets (domain 'X' size)\n")


class TestSampleGrammar:
    def test_generates_requested_size(self, tmp_path, capsys):
        paths = toytask.write_task_files(tmp_path)
        out = str(tmp_path / "sampled.tsv")
        argv = ["sample-grammar", "--grammar", paths["grammar_train"],
                "--count", "25", "--seed", "3", "--out", out]
        for c in paths["source_catalogs"]:
            argv += ["--catalog", c]
        assert main(argv) == 0
        lines = Path(out).read_text().splitlines()
        assert len(lines) == 25

    def test_deterministic(self, tmp_path):
        paths = toytask.write_task_files(tmp_path)
        argv_base = ["sample-grammar", "--grammar", paths["grammar_train"],
                     "--count", "30", "--seed", "11"]
        for c in paths["source_catalogs"]:
            argv_base += ["--catalog", c]
        out1, out2 = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
        assert main(argv_base + ["--out", out1]) == 0
        assert main(argv_base + ["--out", out2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_missing_catalog_exits_one(self, tmp_path, capsys):
        paths = toytask.write_task_files(tmp_path)
        assert main(["sample-grammar", "--grammar", paths["grammar_train"],
                     "--count", "5", "--out", str(tmp_path / "x.tsv")]) == 1

    def test_infinite_catalog_weight_exits_one(self, tmp_path, capsys):
        paths = toytask.write_task_files(tmp_path)
        catalog = tmp_path / "catalog_src_city.tsv"
        catalog.write_text("#slot_type=City\nparis\nberlin\tinf\n", encoding="utf-8")
        argv = ["sample-grammar", "--grammar", paths["grammar_train"], "--count", "5",
                "--out", str(tmp_path / "x.tsv")]
        for c in paths["source_catalogs"]:
            argv += ["--catalog", c]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: %s:3: " % catalog) and err.count("\n") == 1, err
        assert not (tmp_path / "x.tsv").exists()

    @pytest.mark.parametrize("prefix", ["a\tb", "x\ny", "x\ry", " g", "#g", "\ufeffg"])
    def test_id_prefix_a_corpus_line_cannot_hold_exits_one(self, tmp_path, capsys, prefix):
        # a tab or line break would split the written line; a leading space
        # would be stripped when the corpus is read back, a leading "#"
        # would make the line a comment, and a leading byte-order mark would
        # be dropped from the first line
        paths = toytask.write_task_files(tmp_path)
        argv = ["sample-grammar", "--grammar", paths["grammar_train"], "--count", "5",
                "--id-prefix", prefix, "--out", str(tmp_path / "x.tsv")]
        for c in paths["source_catalogs"]:
            argv += ["--catalog", c]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: invalid utterance id: %r\n" % (prefix + "000000"), err
        assert not (tmp_path / "x.tsv").exists()

    @pytest.mark.parametrize("pattern, token", [
        ("play {Song Name} now", "{Song"), ("{Song}{Song}", "{Song}{Song}")])
    def test_a_broken_placeholder_exits_one(self, tmp_path, capsys, pattern, token):
        grammar = tmp_path / "grammar.tsv"
        grammar.write_text("PlayMusic\tMusic\t1\t%s\n" % pattern, encoding="utf-8")
        catalog = tmp_path / "song.tsv"
        catalog.write_text("#slot_type=Song\nyesterday\n", encoding="utf-8")
        assert main(["sample-grammar", "--grammar", str(grammar), "--catalog", str(catalog),
                     "--count", "5", "--out", str(tmp_path / "x.tsv")]) == 1
        err = capsys.readouterr().err
        assert err == "error: %s:1: %r is not a {SlotType} placeholder\n" % (grammar, token), err
        assert not (tmp_path / "x.tsv").exists()

    def test_intents_and_domains_of_corpus_lines(self, tmp_path):
        # the grammar takes every intent and domain that a corpus line holds
        grammar = tmp_path / "grammar.tsv"
        grammar.write_text("Play(Music)\tMy Domain\t1\tplay {Song}\n", encoding="utf-8")
        catalog = tmp_path / "song.tsv"
        catalog.write_text("#slot_type=Song\nyesterday\nlet it be\n", encoding="utf-8")
        out = tmp_path / "x.tsv"
        assert main(["sample-grammar", "--grammar", str(grammar), "--catalog", str(catalog),
                     "--count", "5", "--out", str(out)]) == 0
        sampled = sample_grammar(load_grammar(grammar), load_catalogs([catalog]), 5, 0)
        assert {(u.intent, u.domain) for u in sampled} == {("Play(Music)", "My Domain")}
        assert load_corpus(out) == sampled

    @pytest.mark.parametrize("huge, message", [
        ("catalog", "catalog Song has a total weight that is not finite"),
        ("grammar", "the grammar has a total weight that is not finite"),
    ], ids=["catalog", "grammar"])
    def test_a_total_weight_past_the_float_maximum_exits_one(self, tmp_path, capsys,
                                                              huge, message):
        # each weight of the `huge` file is finite, but their total is not
        grammar, catalog = tmp_path / "grammar.tsv", tmp_path / "song.tsv"
        weight = {"grammar": 1.0, "catalog": 1.0, huge: 1e308}
        grammar.write_text("PlayMusic\tMusic\t%r\tplay {Song}\nStop\tMusic\t%r\tstop\n"
                           % (weight["grammar"], weight["grammar"]), encoding="utf-8")
        catalog.write_text("#slot_type=Song\nyesterday\t%r\nlet it be\t%r\n"
                           % (weight["catalog"], weight["catalog"]), encoding="utf-8")
        assert main(["sample-grammar", "--grammar", str(grammar), "--catalog", str(catalog),
                     "--count", "5", "--out", str(tmp_path / "x.tsv")]) == 1
        path = grammar if huge == "grammar" else catalog
        assert capsys.readouterr().err == "error: %s: %s\n" % (path, message)
        assert not (tmp_path / "x.tsv").exists()

    def test_language_option_is_gone(self, tmp_path, capsys):
        paths = toytask.write_task_files(tmp_path)
        assert main(["sample-grammar", "--grammar", paths["grammar_train"], "--count", "5",
                     "--language", "en", "--out", str(tmp_path / "x.tsv")]) == 1
        assert "unrecognized arguments: --language en" in capsys.readouterr().err
        assert not (tmp_path / "x.tsv").exists()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "mtnlu.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "pipeline" in proc.stdout


_REPORT_MODULES = "import sys; %s; print(' '.join(sorted(sys.modules))); sys.exit(code)"
_MAIN = "from mtnlu.cli import main; code = main(sys.argv[1:])"
_OPENSSL = {"_hashlib", "ssl"}


def python_output(code, argv):
    """The last line that `python -c code argv` prints in a fresh process,
    with `src` and `tests` on its path; the test process itself has imported
    scipy and hashlib already."""
    paths = [str(Path(mtnlu.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, paths + [os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def modules_after(argv, run=_MAIN):
    """The modules loaded in a fresh process after `run` sets `code`, by
    default to the exit code of `mtnlu argv`."""
    return set(python_output(_REPORT_MODULES % run, argv).split())


def scipy_modules_after(argv, run=_MAIN):
    return {m for m in modules_after(argv, run) if m.partition(".")[0] == "scipy"}


def command_argv(command, tmp_path, trained_models=None):
    """The arguments of a toytask run of `command` whose inputs are in `tmp_path`."""
    if command == "pipeline":
        return ["pipeline", "--config", toytask.build_workspace(tmp_path, n_train=30, n_test=10)]
    if command == "evaluate":
        config, models = trained_models
        shutil.copytree(models, tmp_path / "out")
        return ["evaluate", "--config", config, "--out", str(tmp_path / "out")]
    if command == "compare":
        return ["compare", write_report(tmp_path / "a.tsv", 2138),
                write_report(tmp_path / "b.tsv", 2072)]
    paths = toytask.write_task_files(tmp_path)
    argv = ["sample-grammar", "--grammar", paths["grammar_train"], "--count", "5",
            "--out", str(tmp_path / "x.tsv")]
    for c in paths["source_catalogs"]:
        argv += ["--catalog", c]
    return argv


# Block the modules named in argv[1] and put a module that wraps the built-in
# SHA-256 under the name in argv[2], then report which `sha256` the pipeline
# took, the digests it makes with it, and whether OpenSSL was loaded.
_SHA256_SOURCE = """\
import json, sys, types
try:
    from _sha2 import sha256 as builtin
except ImportError:
    from _sha256 import sha256 as builtin
for name in filter(None, sys.argv[1].split(",")):
    sys.modules[name] = None
wrapper = types.ModuleType("sha256_wrapper")
wrapper.sha256 = lambda data=b"": builtin(data)
if sys.argv[2]:
    sys.modules[sys.argv[2]] = wrapper
from mtnlu import pipeline
from test_pipeline import toytask_config
print(json.dumps([pipeline.sha256 is wrapper.sha256, pipeline.stage_seed(7, "postprocess"),
                  toytask_config("/ws").fingerprint(), "_hashlib" in sys.modules]))
"""


class TestImports:
    """Only training on a design of `_CSR_MIN_ENTRIES` ids or more imports
    scipy, and from it only scipy.sparse.  The pipeline hashes with CPython's
    built-in SHA-256, so no command that leaves scipy out loads OpenSSL
    (scipy.sparse imports numpy.random, which loads hashlib)."""

    def test_evaluate_imports_no_scipy(self, tmp_path, trained_models):
        assert scipy_modules_after(command_argv("evaluate", tmp_path, trained_models)) == set()
        assert (tmp_path / "out" / "semer_report.tsv").exists()

    def test_compare_imports_no_scipy(self, tmp_path):
        assert scipy_modules_after(command_argv("compare", tmp_path)) == set()

    def test_sample_grammar_imports_no_scipy(self, tmp_path):
        assert scipy_modules_after(command_argv("sample-grammar", tmp_path)) == set()

    @pytest.mark.parametrize("command", ["pipeline", "evaluate", "compare", "sample-grammar"])
    def test_commands_load_no_openssl(self, tmp_path, trained_models, command):
        assert modules_after(command_argv(command, tmp_path, trained_models)) & _OPENSSL == set()

    @pytest.mark.parametrize("blocked, injected", [
        ("", "_sha2"), ("_sha2", "_sha256"), ("_sha2,_sha256", ""),
    ], ids=["_sha2", "_sha256", "hashlib"])
    def test_every_sha256_source_gives_the_same_digests(self, blocked, injected):
        wrapped, seed, fingerprint, openssl = json.loads(
            python_output(_SHA256_SOURCE, [blocked, injected]))
        assert wrapped == bool(injected)
        assert seed == int.from_bytes(hashlib.sha256(b"7|postprocess").digest()[:8], "big")
        assert fingerprint == test_pipeline.TestConfigSchema.GOLDEN["toytask"]
        assert openssl == (not injected)

    def test_small_train_imports_no_scipy(self, tmp_path):
        config = toytask.build_workspace(tmp_path, n_train=30, n_test=10)
        assert scipy_modules_after(["train", "--config", config]) == set()
        assert (tmp_path / "out" / "crf_model.json").exists()

    def test_large_design_imports_scipy_sparse_only(self):
        # a design below the threshold is numpy's until a design at the
        # threshold has imported scipy
        modules = scipy_modules_after([], (
            "import numpy as np; "
            "from mtnlu.nlu.modelio import _CSR_MIN_ENTRIES as n, design_matrix; "
            "kinds = [type(design_matrix([np.zeros(k, dtype=np.int64)], 1)).__name__ "
            "for k in (n - 1, n, 1)]; "
            "assert kinds == ['CountMatrix', 'csr_matrix', 'csr_matrix'], kinds; code = 0"))
        assert "scipy.sparse" in modules
        assert "scipy.special" not in modules
