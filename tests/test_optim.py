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


# the objective after the start point and each of 40 steps on the 12-dimensional
# Rosenbrock function, recorded with the backtrack factor 0.5 and the history
# of 10 pairs; either constant changed ends elsewhere (0.7 ends at 6.077, a
# history of 5 at 5.487)
_ROSENBROCK_PATH = [
    1921.4399999999998, 512.2753535360013, 286.73199247119595,
    118.14701176049182, 39.56582445911694, 20.25592509310944,
    11.964950107597458, 11.619345851593529, 11.578574806805705,
    11.571117237531613, 11.568875732733524, 11.568016807599689,
    11.566904841657287, 11.563309894750235, 11.547183196506243,
    11.540160019859394, 11.520511895242485, 11.44977268708185,
    11.372560000456843, 11.322425864962197, 11.169289670075441,
    10.983781690889856, 10.87369786960406, 10.708728709219105,
    10.56231407990798, 10.212384813633207, 9.940514627649685,
    9.612662712085282, 9.563553035368306, 9.170578067514832,
    9.086129000081245, 8.8045716221689, 8.606468549367888,
    8.421053216015288, 8.07612444872119, 7.7592175629130065,
    7.547519125977993, 7.3023037606069146, 6.915121893045162,
    6.809508253704641, 6.328981041751924,
]


def test_the_path_on_rosenbrock_is_pinned():
    def rosenbrock(x):
        d = x[1:] - x[:-1] ** 2
        grad = np.zeros_like(x)
        grad[:-1] = -400.0 * x[:-1] * d - 2.0 * (1.0 - x[:-1])
        grad[1:] += 200.0 * d
        return float(100.0 * d @ d + (1.0 - x[:-1]) @ (1.0 - x[:-1])), grad

    x0 = np.array([-1.2, 1.0, -0.5, 0.8, 1.5, -1.0, 0.3, 0.9, -0.7, 1.1, 0.2, -0.4])
    result = optim.minimize(rosenbrock, x0, 40, 1e-12)
    assert result.iterations == 40 and not result.converged
    assert result.values == pytest.approx(_ROSENBROCK_PATH, rel=1e-9, abs=0)


def test_a_step_that_does_not_lower_the_objective_enough_is_halved():
    # from 0.5 the full step of x @ x lands on -0.5, where f is 0.25 again:
    # no decrease, so the sufficient-decrease test rejects it and the halved
    # step reaches the minimum; a test that accepts any f <= f(x) stays put
    result = optim.minimize(lambda x: (float(x @ x), 2 * x), np.array([0.5]), 1, 1e-12)
    assert result.values == [0.25, 0.0]


def test_a_first_step_may_be_halved_more_than_thirty_times():
    # f = 0.5e13 * x**2 from x = 1e-12: the unit step along the gradient
    # (10) overshoots by thirteen orders of magnitude, so Armijo accepts
    # only the 39th halving; a search that gives up after 30 takes no step
    evaluations = []

    def fun_grad(x):
        evaluations.append(x)
        return 0.5e13 * float(x @ x), 1e13 * x

    result = optim.minimize(fun_grad, np.array([1e-12]), 1, 1e-15)
    assert len(evaluations) == 41 and result.iterations == 1
    assert result.values == pytest.approx([5e-12, 3.353718215601989e-12], rel=1e-9, abs=0)
