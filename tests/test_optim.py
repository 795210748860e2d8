"""The optimizer's early exits, and the link between training and the
objectives that the gradient oracles check: each trainer minimises exactly
`crf_objective` or `maxent_objective` of the model it returns."""

import logging

import numpy as np
import pytest

import toytask
from mtnlu.nlu import (
    TrainingConfig,
    bio_encode,
    crf,
    crf_objective,
    maxent,
    maxent_objective,
    optim,
    train_intent_classifier,
    train_slot_tagger,
)


def test_a_direction_that_does_not_descend_restarts_along_the_gradient(monkeypatch):
    # from the third evaluation on the gradient holds NaN, so the L-BFGS
    # direction of the third iteration has a NaN slope
    evaluations = []

    def fun_grad(x):
        evaluations.append(x)
        grad = np.array([1.0, 10.0]) * x
        value = 0.5 * float(x @ grad)
        if len(evaluations) >= 3:
            grad[0] = np.nan
        return value, grad

    histories = []
    direction = optim._direction

    def spy(g, history):
        histories.append(len(history))
        return direction(g, history)

    monkeypatch.setattr(optim, "_direction", spy)
    result = optim.minimize(fun_grad, np.array([1.0, 1.0]), 10, 1e-6)
    assert histories == [0, 1, 1, 0]  # the restart drops the history
    assert result.iterations == 2 and not result.converged
    assert np.all(np.isfinite(result.x))


def test_no_step_that_lowers_the_objective_stops_without_a_warning(caplog):
    # |x| has its minimum at the kink 0, where the subgradient 1 still
    # points uphill in one direction and every backtracked step rises
    def fun_grad(x):
        return float(np.abs(x).sum()), np.where(x < 0, -1.0, 1.0)

    with caplog.at_level(logging.WARNING):
        result = optim.minimize(fun_grad, np.array([1.0]), 10, 1e-6)
    assert result.iterations == 1 < 10
    assert result.values == [1.0, 0.0] and not result.converged
    assert caplog.records == []


@pytest.mark.parametrize("module, train, objective, pair", [
    (crf, train_slot_tagger, crf_objective, lambda u: (u.tokens, tuple(bio_encode(u)))),
    (maxent, train_intent_classifier, maxent_objective, lambda u: (u.tokens, u.intent)),
], ids=["crf", "maxent"])
def test_training_minimises_the_objective_the_oracles_check(monkeypatch, module, train,
                                                           objective, pair):
    results = []

    def recording(*args, **kwargs):
        results.append(optim.minimize(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, "minimize", recording)
    corpus = toytask.sample_source(60, 3)
    model = train(corpus, TrainingConfig(max_iterations=15), toytask.source_catalogs())
    assert objective(model, [pair(u) for u in corpus])[0] == results[0].values[-1]
