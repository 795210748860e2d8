"""What the CRF and MaxEnt models share: the numpy design matrix and
logsumexp, the catalog build that a model pair shares when it is loaded, and
the checks that a model file meets when it is loaded."""

import json
import shutil

import numpy as np
import pytest
from scipy import sparse
from scipy.special import logsumexp as scipy_logsumexp

import toytask
from mtnlu.errors import FormatError
from mtnlu.nlu import crf, maxent, modelio, predict
from mtnlu.nlu.modelio import logsumexp
from mtnlu.pipeline import _load_models


def assert_bit_equal(a, axis):
    ours, theirs = logsumexp(a, axis), scipy_logsumexp(a, axis=axis)
    assert ours.shape == theirs.shape
    assert np.array_equal(ours, theirs), np.max(np.abs(ours - theirs))


class TestLogsumexp:
    """Bit-equal to scipy.special.logsumexp, which the package no longer imports."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 10.0, 1e3, 1e6])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_random_arrays(self, scale, axis):
        gen = np.random.default_rng(int(scale * 1000) % 9973 + axis)
        for _ in range(40):
            shape = tuple(gen.integers(1, 7, size=3))
            assert_bit_equal(scale * gen.normal(size=shape), axis)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_ties_at_the_maximum(self, axis):
        gen = np.random.default_rng(5 + axis)
        for scale in (1.0, 1e3, 1e6):
            a = np.round(scale * gen.normal(size=(4, 5, 6)), -int(np.log10(scale)))
            assert_bit_equal(a, axis)
        assert_bit_equal(np.full((3, 4, 2), -7.25), axis)

    def test_single_element(self):
        for value in (0.0, -3.5, 1e6, -1e6):
            assert_bit_equal(np.array([value]), 0)
            assert_bit_equal(np.full((1, 1, 1), value), 1)

    def test_crf_log_space_recursions_unchanged(self, monkeypatch):
        # the log-space fallback runs at the line search's largest steps
        gen = np.random.default_rng(17)
        for scale in (1.0, 1e3, 1e6):
            E = scale * gen.normal(size=(6, 5, 7))
            transitions = scale * gen.normal(size=(7, 7))
            ours = crf._log_forward_backward(E, transitions)
            monkeypatch.setattr(crf, "logsumexp", scipy_logsumexp)
            theirs = crf._log_forward_backward(E, transitions)
            monkeypatch.undo()
            for x, y in zip(ours, theirs):
                assert np.array_equal(x, y)

    def test_maxent_objective_unchanged(self, monkeypatch):
        gen = np.random.default_rng(23)
        X = modelio.design_matrix([gen.integers(0, 30, size=5) for _ in range(40)], 30)
        y = gen.integers(0, 4, size=40)
        for scale in (1.0, 1e3, 1e6):
            weights = scale * gen.normal(size=(30, 4))
            ours = maxent._nll_and_grad(X, y, weights, 0.1)
            monkeypatch.setattr(maxent, "logsumexp", scipy_logsumexp)
            theirs = maxent._nll_and_grad(X, y, weights, 0.1)
            monkeypatch.undo()
            assert ours[0] == theirs[0]
            assert np.array_equal(ours[1], theirs[1])


def random_design(gen):
    """Id lists with empty rows, unused columns and ids repeated 2-3 times in
    a row, and the number of columns."""
    n_columns = int(gen.integers(1, 40)) + 5  # the last 5 are never used
    rows = []
    for _ in range(gen.integers(1, 30)):
        ids = gen.integers(0, n_columns - 5, size=gen.integers(0, 8))
        rows.append(np.repeat(ids, gen.integers(1, 4, size=len(ids))))
    return rows, n_columns


def with_negative_zeros(gen, a):
    a[gen.random(a.shape) < 0.1] = -0.0
    return a


def assert_same_bits(ours, theirs):
    assert type(ours) is np.ndarray and ours.shape == theirs.shape
    assert np.array_equal(ours.view(np.int64), theirs.view(np.int64))


def entries(rows):
    """The row and column of each id in `rows`."""
    return np.repeat(np.arange(len(rows)), [len(ids) for ids in rows]), np.concatenate(rows)


class TestCountMatrix:
    """The numpy design has the products of scipy's CSR matrix to the last
    bit.  Which of the two `design_matrix` returns is tested in a fresh
    process (test_cli.py), since this one has imported scipy."""

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e6, 1e300])
    def test_products_match_csr(self, scale):
        gen = np.random.default_rng(int(np.log10(scale)) + 300)
        for _ in range(50):
            rows, n_columns = random_design(gen)
            row_ids, cols = entries(rows)
            ours = modelio.CountMatrix.of_entries(row_ids, cols, (len(rows), n_columns))
            csr = sparse.csr_matrix((np.ones(len(cols)), (row_ids, cols)),
                                    shape=(len(rows), n_columns))
            n_out = int(gen.integers(1, 6))
            W = with_negative_zeros(gen, scale * gen.normal(size=(n_columns, n_out)))
            G = with_negative_zeros(gen, scale * gen.normal(size=(len(rows), n_out)))
            assert_same_bits(ours @ W, csr @ W)
            assert_same_bits(ours.T @ G, csr.T @ G)

    def test_repeated_ids_count(self):
        rows = [np.array([2, 0, 2, 2]), np.array([], dtype=np.int64)]
        D = modelio.CountMatrix.of_entries(*entries(rows), (2, 3))
        assert np.array_equal(D @ np.eye(3), [[1.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(D.T @ np.ones((2, 1)), [[1.0], [0.0], [3.0]])


@pytest.fixture(scope="module")
def trained_models(tmp_path_factory):
    _, out = toytask.train_model_pair(tmp_path_factory.mktemp("models"))
    return out


@pytest.fixture
def models(tmp_path, trained_models):
    """A copy of the trained pair."""
    out = tmp_path / "out"
    shutil.copytree(trained_models, out)
    return out


def edit_intent_gazetteers(out, edit, name="intent_model.json"):
    path = out / name
    obj = json.loads(path.read_text(encoding="utf-8"))
    edit(obj["gazetteers"][0][1][0])  # the first [tokens, weight] entry
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


class TestSharedCatalogs:
    def test_pair_shares_one_build(self, models):
        crf_model, maxent_model = _load_models(models)
        assert crf_model.gazetteers and crf_model.gazetteers is not maxent_model.gazetteers
        assert crf_model.gazetteers.keys() == maxent_model.gazetteers.keys()
        for slot_type, catalog in crf_model.gazetteers.items():
            assert maxent_model.gazetteers[slot_type] is catalog

        fresh_crf = crf.CrfModel.load(models / "crf_model.json")
        fresh_maxent = maxent.MaxEntModel.load(models / "intent_model.json")
        assert fresh_crf.gazetteers["City"] is not fresh_maxent.gazetteers["City"]
        for u in toytask.sample_target_test(20, 3):
            assert predict(crf_model, maxent_model, u.tokens) == predict(
                fresh_crf, fresh_maxent, u.tokens)

    def test_different_gazetteers_get_their_own_build(self, models):
        edit_intent_gazetteers(models, lambda entry: entry.__setitem__(1, 2.5))
        crf_model, maxent_model = _load_models(models)
        slot_type = sorted(crf_model.gazetteers)[0]
        assert maxent_model.gazetteers[slot_type] is not crf_model.gazetteers[slot_type]
        assert maxent_model.gazetteers[slot_type].entries[0].weight == 2.5
        assert crf_model.gazetteers[slot_type].entries[0].weight != 2.5

    def test_true_weight_is_not_mistaken_for_one(self, models):
        # true == 1 == 1.0 in decoded JSON; the trained weights are 1.0
        path = edit_intent_gazetteers(models, lambda entry: entry.__setitem__(1, True))
        with pytest.raises(FormatError, match="gazetteers must be") as info:
            _load_models(models)
        assert str(info.value).startswith(str(path))

    def test_false_weight_is_not_mistaken_for_zero(self, models):
        # false == 0 == 0.0 as well, once the slot tagger holds a 0.0 weight
        edit_intent_gazetteers(models, lambda entry: entry.__setitem__(1, 0.0), "crf_model.json")
        path = edit_intent_gazetteers(models, lambda entry: entry.__setitem__(1, False))
        with pytest.raises(FormatError, match="gazetteers must be") as info:
            _load_models(models)
        assert str(info.value).startswith(str(path))


class TestGazetteerEntries:
    @pytest.mark.parametrize("field, bad, reason", [
        (0, [None], "tokens must be non-empty strings"),
        (1, -1.0, "catalog weight must be a finite non-negative number"),
    ], ids=["null-token", "negative-weight"])
    def test_bad_entry_names_its_catalog_and_index(self, models, field, bad, reason):
        path = models / "crf_model.json"
        obj = json.loads(path.read_text(encoding="utf-8"))
        slot_type, entries = obj["gazetteers"][-1]
        entries[2][field] = bad
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(FormatError) as info:
            _load_models(models)
        assert str(info.value) == "%s: gazetteers: catalog %r entry 2: %s" % (
            path, slot_type, reason)



class TestModelChecks:
    """The checks in the model constructors, each reached through a file."""

    @pytest.mark.parametrize("name, key, edit, reason", [
        ("crf_model.json", "labels", lambda labels: labels.remove("O"),
         "label set must contain O"),
        ("crf_model.json", "labels", lambda labels: labels.remove("I-City"),
         "label set not BIO-closed for type 'City'"),
        ("crf_model.json", "transitions", list.pop, "transitions shape mismatch"),
        ("intent_model.json", "intents", list.clear, "intent set must be non-empty"),
    ], ids=["labels-without-O", "labels-not-BIO-closed", "transitions-shape", "no-intents"])
    def test_bad_model_names_its_file(self, models, name, key, edit, reason):
        path = models / name
        obj = json.loads(path.read_text(encoding="utf-8"))
        edit(obj[key])
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(FormatError) as info:
            _load_models(models)
        assert str(info.value) == "%s: %s" % (path, reason)
