"""Maximum-entropy (multinomial logistic regression) intent classifier.

The softmax posterior doubles as the intent confidence used by round-trip
filtering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..corpus import Catalog, Matrix, Utterance, check_field
from .features import Gazetteers, intent_features
from .modelio import design_matrix, feature_ids, load_model, logsumexp, save_model
from .optim import TrainingConfig, minimize

# the model file's own keys, besides the envelope that modelio writes
_FILE_KEYS = {"intents": tuple[str, ...], "weights": Matrix}


@dataclass(eq=False)
class MaxEntModel:
    intents: tuple[str, ...]
    feature_index: dict[str, int]
    weights: np.ndarray  # (n_features, n_intents)
    gazetteers: dict[str, Catalog] = field(default_factory=dict)
    l2: float = 0.0

    def __post_init__(self):
        self.intents = tuple(self.intents)
        self.weights = np.asarray(self.weights, dtype=float)
        if not self.intents:
            raise ValueError("intent set must be non-empty")
        if len(set(self.intents)) < len(self.intents):
            raise ValueError("intent set repeats an intent")
        for intent in self.intents:
            check_field(intent, "intent")
        if self.weights.shape != (len(self.feature_index), len(self.intents)):
            raise ValueError("weights shape mismatch")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")

    def feature_ids(self, tokens: Sequence[str]) -> np.ndarray:
        """Known-feature ids of the utterance; unseen features are dropped."""
        return feature_ids(intent_features(tokens, self.gazetteers), self.feature_index)

    def posterior(self, tokens: Sequence[str]) -> np.ndarray:
        """Softmax posterior over intents, aligned with `self.intents`."""
        ids = self.feature_ids(tokens)
        logits = self.weights[ids].sum(axis=0)
        p = np.exp(logits - logits.max())
        return p / p.sum()

    def save(self, path) -> None:
        save_model(self, path, "maxent-model", _FILE_KEYS)

    @classmethod
    def load(cls, path, catalogs: dict[str, Catalog] | None = None) -> "MaxEntModel":
        return load_model(cls, path, "maxent-model", _FILE_KEYS, catalogs)


def classify_intent(model: MaxEntModel, tokens: Sequence[str]) -> tuple[str, float]:
    """Most probable intent and its posterior; ties take the first intent."""
    p = model.posterior(tokens)
    best = int(np.argmax(p))
    return model.intents[best], float(p[best])


def intent_posteriors(model: MaxEntModel, tokens: Sequence[str]) -> dict[str, float]:
    """Full posterior keyed by intent, in model intent order."""
    p = model.posterior(tokens)
    return {intent: float(p[i]) for i, intent in enumerate(model.intents)}


def _nll_and_grad(X, y: np.ndarray, weights: np.ndarray, l2: float):
    logits = np.asarray(X @ weights)
    log_z = logsumexp(logits, axis=1)
    value = float(log_z.sum() - logits[np.arange(len(y)), y].sum())
    P = np.exp(logits - log_z[:, None])
    P[np.arange(len(y)), y] -= 1.0
    grad = np.asarray(X.T @ P)
    value += 0.5 * l2 * float(np.sum(weights**2))
    grad += l2 * weights
    return value, grad


def _design(pairs: Sequence[tuple[Sequence[str], str]], intents: Sequence[str],
            feature_index: dict[str, int], gazetteers: Gazetteers, grow: bool = False):
    """Design matrix X and intent ids y of (tokens, intent) pairs, with the
    features of `feature_index` (`grow` as in `modelio.feature_ids`)."""
    intent_index = {intent: i for i, intent in enumerate(intents)}
    for _, intent in pairs:
        if intent not in intent_index:
            raise ValueError("intent %r not in model intent set" % intent)
    rows = [feature_ids(intent_features(tokens, gazetteers), feature_index, grow)
            for tokens, _ in pairs]
    X = design_matrix(rows, len(feature_index))
    return X, np.asarray([intent_index[intent] for _, intent in pairs], dtype=np.int64)


def maxent_objective(
    model: MaxEntModel, corpus: Sequence[tuple[Sequence[str], str]]
) -> tuple[float, np.ndarray]:
    """Regularized NLL of (tokens, intent) pairs and its gradient."""
    X, y = _design(corpus, model.intents, model.feature_index, model.gazetteers)
    return _nll_and_grad(X, y, model.weights, model.l2)


def train_intent_classifier(
    corpus: Sequence[Utterance],
    hyper: TrainingConfig = TrainingConfig(),
    gazetteers: Gazetteers | None = None,
    name: str = "MaxEnt intent classifier",
) -> MaxEntModel:
    """Fit classifier weights; deterministic for identical inputs.  Stopping at
    the iteration cap logs a warning naming `name`."""
    if not corpus:
        raise ValueError("cannot train on an empty corpus")
    gazetteers = dict(gazetteers or {})
    intents = tuple(sorted({u.intent for u in corpus}))
    feature_index: dict[str, int] = {}
    X, y = _design([(u.tokens, u.intent) for u in corpus], intents, feature_index, gazetteers,
                   grow=True)
    F, K = len(feature_index), len(intents)

    def fun_grad(x: np.ndarray):
        value, grad = _nll_and_grad(X, y, x.reshape(F, K), hyper.l2)
        return value, grad.ravel()

    result = minimize(fun_grad, np.zeros(F * K), hyper.max_iterations, hyper.tolerance, name)
    return MaxEntModel(
        intents=intents,
        feature_index=feature_index,
        weights=result.x.reshape(F, K),
        gazetteers=gazetteers,
        l2=hyper.l2,
    )
