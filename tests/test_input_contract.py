"""Seeded random mutations of the three JSON inputs of `mtnlu evaluate`: the
config and the two model files.

Whatever the input holds, the command exits 0 or 1, never with a traceback.
An exit 1 prints exactly one ``error:`` line, and that line starts with the
path of the file at fault.  The method is that of Miller, Fredriksen & So
(1990), "An Empirical Study of the Reliability of UNIX Utilities": feed a
program random input and see whether it crashes.  Each case draws from its
own `random.Random(seed)`, so a failure reproduces.
"""

import json
import random
import re
import shutil
from pathlib import Path

import pytest

import toytask
from mtnlu.cli import main

INPUTS = ("config.json", "crf_model.json", "intent_model.json")

# the JSON text that replaces a node; 1e400 reads as an infinite float
REPLACEMENTS = ("null", "true", "-1", '"x"', "[]", "{}", "1e400")

KEY = re.compile(rb'"([^"\\]*)"\s*:')


def _nodes(value, path=()):
    """(path, value) of every node of a JSON value, the root first."""
    yield path, value
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _with_text(data: bytes, rng: random.Random, text: str) -> bytes:
    """`data` with the JSON of a random node replaced by `text`."""
    marker = "\u0000replaced\u0000"
    obj = json.loads(data)
    path, _ = rng.choice(list(_nodes(obj)))
    if not path:
        return text.encode("utf-8")
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = marker
    return json.dumps(obj).replace(json.dumps(marker), text).encode("utf-8")


def replace(data, rng, seed):
    return _with_text(data, rng, REPLACEMENTS[seed % len(REPLACEMENTS)])


def nest(data, rng, seed):
    return _with_text(data, rng, "[" * 1000 + "]" * 1000)


def delete_key(data, rng, seed):
    obj = json.loads(data)
    target = rng.choice([v for _, v in _nodes(obj) if isinstance(v, dict) and v])
    del target[rng.choice(sorted(target))]
    return json.dumps(obj).encode("utf-8")


def repeat_key(data, rng, seed):
    match = rng.choice(list(KEY.finditer(data)))
    return data[:match.start()] + b'"%s": 0, ' % match.group(1) + data[match.start():]


def truncate(data, rng, seed):
    return data[:rng.randrange(len(data))]


def insert_0xff(data, rng, seed):
    at = rng.randrange(len(data) + 1)
    return data[:at] + b"\xff" + data[at:]


# each mutation with the number of seeds it runs for each input
MUTATIONS = {replace: 14, delete_key: 3, repeat_key: 2, truncate: 2, insert_0xff: 2, nest: 2}
CASES = [(name, mutation, seed) for name in INPUTS
         for mutation, seeds in MUTATIONS.items() for seed in range(seeds)]


@pytest.fixture(scope="module")
def trained_models(tmp_path_factory):
    return toytask.train_model_pair(tmp_path_factory.mktemp("models"))


@pytest.mark.parametrize("name, mutation, seed", CASES,
                         ids=["%s-%s-%d" % (n, m.__name__, s) for n, m, s in CASES])
def test_mutated_input_exits_zero_or_one(tmp_path, capsys, trained_models,
                                         name, mutation, seed):
    config, models = trained_models
    out = tmp_path / "out"
    shutil.copytree(models, out)
    shutil.copy(config, tmp_path / "config.json")
    path = (tmp_path if name == "config.json" else out) / name
    path.write_bytes(mutation(path.read_bytes(), random.Random(seed), seed))
    capsys.readouterr()
    code = main(["evaluate", "--config", str(tmp_path / "config.json"), "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 1) and "Traceback" not in err, err
    if code == 1:
        assert err.startswith("error: %s: " % path) and err.count("\n") == 1, err


def test_value_nested_near_the_decoders_limit(tmp_path, capsys):
    # a value that `json` can just decode must not overflow the stack when an
    # error message quotes it; the limit depends on the stack in use, so every
    # depth up to one the decoder refuses is tried.  The model files quote
    # their values through the same function.
    config = tmp_path / "config.json"
    workspace = Path(toytask.build_workspace(tmp_path, n_train=4, n_test=2))
    obj = json.loads(workspace.read_text(encoding="utf-8"))
    obj["seed"] = "\u0000nested\u0000"
    for depth in range(900, 1001):
        config.write_text(json.dumps(obj).replace(json.dumps("\u0000nested\u0000"),
                                                  "[" * depth + "]" * depth), encoding="utf-8")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config)]) == 1, depth
        err = capsys.readouterr().err
        assert err.startswith("error: %s: " % config) and err.count("\n") == 1, (depth, err)
