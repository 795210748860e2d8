"""The benchmark's own test: smoke-size runs with the full output checks.

    python3 -m pytest pipebench

Takes about a minute; a broken benchmark fails here instead of after a
long measured run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "pipebench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    r = result(bench("--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", "0", "--size", "smoke"))
    assert (r["correct"], r["attempted"], r["failed"]) == (True, 6, 0)
    assert {k: v["unit"] for k, v in r["metrics"].items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in r["metrics"].values())


def test_traced_smoke_run_reports_every_layer_metric():
    r = result(bench("--workload", "decode-reorder", "--seed", "2", "--seconds", "1",
                     "--trace", "1", "--size", "smoke"))
    assert (r["correct"], r["attempted"], r["failed"]) == (True, 3, 0)
    assert {k: v["unit"] for k, v in r["metrics"].items()} == units("per_layer")
    assert all(isinstance(v["value"], (int, float)) for v in r["metrics"].values())
    assert r["metrics"]["translate.decode_calls"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "filter-train", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_every_decode_reorder_utterance_decodes_both_ways():
    """A decoder failure aborts a whole run, so no seed may draw an
    utterance that fails; the grammar's utterances are few enough to try."""
    sys.path.insert(0, str(run.SRC))
    from mtnlu.translate import PhraseTableModel, decode

    grammar, values = workloads.templates(True, 1.0), workloads.toy_values()
    forward, backward = (PhraseTableModel.from_pairs(pairs, max_jump=2, beam_size=100)
                         for pairs in workloads.reorder_phrases(grammar, values))
    for tokens in workloads.all_utterances(grammar, values):
        decode(decode(tokens, forward).target_tokens, backward)


def test_checks_catch_wrong_outputs(tmp_path):
    inputs = workloads.generate("filter-train", "smoke", tmp_path / "in", 3)
    out = tmp_path / "out"
    code, _, _ = run.run_child(
        [sys.executable, "-m", "mtnlu.cli", "pipeline", "--config", str(inputs.config),
         "--out", str(out)], run.child_env(1), tmp_path / "log")
    assert code == 0
    assert checks.check_pipeline(out, inputs, 0.2) == []

    hypotheses = out / "hypotheses.tsv"
    lines = hypotheses.read_text(encoding="utf-8").splitlines(keepends=True)
    uid, domain, intent, rest = lines[0].split("\t", 3)
    wrong = next(i for i in workloads.CARRIER if i != intent)
    hypotheses.write_text("".join(["\t".join([uid, domain, wrong, rest])] + lines[1:]),
                          encoding="utf-8")
    assert checks.check_semer(out, inputs, 1.0)

    kept = out / "corpus_semantic.tsv"
    kept.write_text("".join(kept.read_text(encoding="utf-8").splitlines(True)[1:]),
                    encoding="utf-8")
    assert checks.check_stages(out, inputs)
    assert checks.check_filter(out, inputs) == []
    inputs.corrupted = set(checks.read_ids(kept))
    assert checks.check_filter(out, inputs)
