"""Metamorphic relations: inputs that mean the same give the same outputs.

Each test runs the pipeline on a small toytask workspace, rewrites the
inputs in a way that keeps their meaning, runs the pipeline again into a
second directory and compares the two output directories file by file.
"""

import json
from pathlib import Path

import pytest

import toytask
from mtnlu.pipeline import STAGES
from toytask import differing_files, run_config


def rewrite(path, change):
    path.write_bytes(change(path.read_bytes()))


def line_inputs(root):
    """Corpora, catalogs, phrase tables and grammars."""
    return sorted(root.glob("*.tsv"))


def crlf_line_ends(root, config):
    for path in line_inputs(root) + [config]:
        rewrite(path, lambda data: data.replace(b"\n", b"\r\n"))


def comment_and_blank_line(root, config):
    # after the first line: a catalog's header, another file's first record
    for path in line_inputs(root):
        rewrite(path, lambda data: data.replace(b"\n", b"\n# a comment\n\n", 1))


def config_keys_reversed(root, config):
    def reversed_keys(value):
        if isinstance(value, dict):
            return {k: reversed_keys(v) for k, v in reversed(value.items())}
        return value

    config.write_text(json.dumps(reversed_keys(json.loads(config.read_text("utf-8")))),
                      encoding="utf-8")


def catalog_values_upper_cased(root, config):
    # catalogs are lowercased when read
    for path in root.glob("catalog_*.tsv"):
        header, entries = path.read_text("utf-8").split("\n", 1)
        path.write_text(header + "\n" + entries.upper(), encoding="utf-8")


def catalog_lists_reversed(root, config):
    obj = json.loads(config.read_text("utf-8"))
    obj["catalogs"].reverse()
    obj["source_catalogs"].reverse()
    config.write_text(json.dumps(obj), encoding="utf-8")


# (rewrite, the output files it may change); the catalog paths are part of
# the effective config, whose fingerprint every stage report records.  A
# byte-order mark is test_pipeline.py's test_byte_order_marks_change_no_output.
RELATIONS = [
    (crlf_line_ends, set()),
    (comment_and_blank_line, set()),
    (config_keys_reversed, set()),
    (catalog_values_upper_cased, set()),
    (catalog_lists_reversed, {"effective_config.json", "stage_reports.tsv"}),
]


@pytest.mark.parametrize("change, may_differ", RELATIONS,
                         ids=[change.__name__ for change, _ in RELATIONS])
def test_the_same_meaning_gives_the_same_outputs(tmp_path, change, may_differ):
    config = toytask.build_workspace(tmp_path, n_train=40, n_test=10)
    run_config(config, out_dir=str(tmp_path / "a"))
    change(tmp_path, Path(config))
    run_config(config, out_dir=str(tmp_path / "b"))
    assert differing_files(tmp_path / "a", tmp_path / "b") <= may_differ


def test_catalog_entry_order_changes_the_draws(tmp_path):
    # a redraw picks an entry by its place in the running weight sums
    config = toytask.build_workspace(tmp_path, n_train=40, n_test=10)
    run_config(config, out_dir=str(tmp_path / "a"))
    for path in tmp_path.glob("catalog_*.tsv"):
        header, *entries = path.read_text("utf-8").splitlines(keepends=True)
        path.write_text(header + "".join(reversed(entries)), encoding="utf-8")
    run_config(config, out_dir=str(tmp_path / "b"))
    assert "corpus_postprocessed.tsv" in differing_files(tmp_path / "a", tmp_path / "b")


def test_a_split_run_trains_and_evaluates_as_the_full_run(tmp_path):
    config = toytask.build_workspace(tmp_path, n_train=40, n_test=10)
    run_config(config, out_dir=str(tmp_path / "full"))
    assert STAGES[4:] == ("postprocess", "train", "evaluate")
    split = tmp_path / "split"
    run_config(config, out_dir=str(split), stages=list(STAGES[:5]))
    obj = json.loads(Path(config).read_text("utf-8"))
    obj["source_corpus"] = str(split / "corpus_postprocessed.tsv")
    (tmp_path / "split.json").write_text(json.dumps(obj), encoding="utf-8")
    run_config(tmp_path / "split.json", out_dir=str(split), stages=["train", "evaluate"])
    for name in ["crf_model.json", "intent_model.json", "hypotheses.tsv", "semer_report.tsv"]:
        assert (split / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name
