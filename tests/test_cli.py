"""Command-line interface: subcommands, exit codes, outputs."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mtnlu
import toytask
from mtnlu import cli
from mtnlu.cli import main
from mtnlu.corpus import load_corpus
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

    def test_null_seed_exits_one(self, tmp_path, capsys):
        config = toytask.build_workspace(tmp_path, n_train=4, n_test=2,
                                         config_update={"seed": None})
        assert main(["pipeline", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err == "error: seed must be an integer, got null\n"

    def test_fractional_beam_size_exits_one(self, tmp_path, capsys):
        config = toytask.build_workspace(tmp_path, n_train=4, n_test=2,
                                         config_update={"translation": {"beam_size": 1.7}})
        assert main(["pipeline", "--config", config]) == 1
        assert capsys.readouterr().err == "error: beam_size must be an integer, got 1.7\n"

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
    ], ids=["repeated-key", "leading-0xff"])
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

    def test_stage_failure_exits_two(self, tmp_path, capsys):
        config = toytask.build_workspace(tmp_path, config_update={
            "stages": ["postprocess"],
        })
        assert main(["pipeline", "--config", config]) == 2
        assert "postprocess" in capsys.readouterr().err

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
        corpus = load_corpus(tmp_path / "train.tsv", "en")
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


class TestSampleGrammar:
    def test_generates_requested_size(self, tmp_path, capsys):
        paths = toytask.write_task_files(tmp_path)
        out = str(tmp_path / "sampled.tsv")
        argv = ["sample-grammar", "--grammar", paths["grammar_train"],
                "--count", "25", "--seed", "3", "--language", "en",
                "--out", out]
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


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "mtnlu.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "pipeline" in proc.stdout


_REPORT_SCIPY = (
    "import sys; from mtnlu.cli import main; code = main(sys.argv[1:]); "
    "print(' '.join(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))); "
    "sys.exit(code)"
)


def scipy_modules_after(argv):
    """The scipy modules loaded in a fresh process after `mtnlu argv`; the
    test process itself has imported scipy already."""
    src = str(Path(mtnlu.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _REPORT_SCIPY, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


class TestImports:
    """Only training imports scipy, and from it only scipy.sparse."""

    def test_evaluate_imports_no_scipy(self, tmp_path, trained_models):
        config, models = trained_models
        shutil.copytree(models, tmp_path / "out")
        argv = ["evaluate", "--config", config, "--out", str(tmp_path / "out")]
        assert scipy_modules_after(argv) == set()
        assert (tmp_path / "out" / "semer_report.tsv").exists()

    def test_compare_imports_no_scipy(self, tmp_path):
        a = write_report(tmp_path / "a.tsv", 2138)
        b = write_report(tmp_path / "b.tsv", 2072)
        assert scipy_modules_after(["compare", a, b]) == set()

    def test_sample_grammar_imports_no_scipy(self, tmp_path):
        paths = toytask.write_task_files(tmp_path)
        argv = ["sample-grammar", "--grammar", paths["grammar_train"], "--count", "5",
                "--out", str(tmp_path / "x.tsv")]
        for c in paths["source_catalogs"]:
            argv += ["--catalog", c]
        assert scipy_modules_after(argv) == set()

    def test_train_imports_scipy_sparse_only(self, tmp_path):
        config = toytask.build_workspace(tmp_path, n_train=30, n_test=10)
        modules = scipy_modules_after(["train", "--config", config])
        assert "scipy.sparse" in modules
        assert "scipy.special" not in modules
