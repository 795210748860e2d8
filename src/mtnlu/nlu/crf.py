"""Linear-chain CRF slot tagger over BIO labels.

Potentials are linear: per-position emission weights indexed by extracted
features plus a dense label-transition matrix.  The negative log-likelihood
and its gradient come from a scaled forward-backward pass in probability
space (Rabiner 1989): each forward step is normalised by its sum, so every
step is a matrix product and log Z is the sum of the log normalisers.  A
length group whose normalisers underflow, as at the huge trial steps of a
line search, is recomputed in log space.  Decoding uses Viterbi.  Sequences
are batched by length so training stays fast at corpus scale, but the math
is exactly the per-sequence textbook form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..corpus import Catalog, Matrix, SlotSpan, Utterance, check_name, make_span
from .features import Gazetteers, sequence_features
from .modelio import design_matrix, feature_ids, load_model, logsumexp, save_model
from .optim import TrainingConfig, minimize

OUTSIDE = "O"

# the model file's own keys, besides the envelope that modelio writes
_FILE_KEYS = {"labels": tuple[str, ...], "emissions": Matrix, "transitions": Matrix}


def bio_labels(slot_types: Iterable[str]) -> tuple[str, ...]:
    """Label set: O plus B-/I- pairs for each slot type, in sorted order."""
    labels = [OUTSIDE]
    for t in sorted(set(slot_types)):
        labels.append("B-" + t)
        labels.append("I-" + t)
    return tuple(labels)


def bio_encode(utterance: Utterance) -> list[str]:
    labels = [OUTSIDE] * len(utterance.tokens)
    for slot in utterance.slots:
        labels[slot.start] = "B-" + slot.slot_type
        for i in range(slot.start + 1, slot.end):
            labels[i] = "I-" + slot.slot_type
    return labels


def bio_decode(tokens: Sequence[str], labels: Sequence[str]) -> tuple[SlotSpan, ...]:
    """Turn a BIO label sequence into spans.

    An I-X that does not continue an open X span (after O, at the start, or
    after a different type) is repaired by treating it as B-X.
    """
    if len(tokens) != len(labels):
        raise ValueError("got %d labels for %d tokens" % (len(labels), len(tokens)))
    spans: list[SlotSpan] = []
    open_type: str | None = None
    start = 0
    for i, label in enumerate(labels):
        if label == OUTSIDE:
            if open_type is not None:
                spans.append(make_span(tokens, open_type, start, i))
                open_type = None
        elif label.startswith("B-") or (
            label.startswith("I-") and label[2:] != open_type
        ):
            if open_type is not None:
                spans.append(make_span(tokens, open_type, start, i))
            open_type = label[2:]
            start = i
        elif not label.startswith("I-"):
            raise ValueError("bad BIO label %r" % label)
    if open_type is not None:
        spans.append(make_span(tokens, open_type, start, len(labels)))
    return tuple(spans)


@dataclass(eq=False)
class CrfModel:
    """Weights plus everything needed to featurize new inputs."""

    labels: tuple[str, ...]
    feature_index: dict[str, int]
    emissions: np.ndarray  # (n_features, n_labels)
    transitions: np.ndarray  # (n_labels, n_labels)
    gazetteers: dict[str, Catalog] = field(default_factory=dict)
    l2: float = 0.0

    def __post_init__(self):
        self.labels = tuple(self.labels)
        self.emissions = np.asarray(self.emissions, dtype=float)
        self.transitions = np.asarray(self.transitions, dtype=float)
        L = len(self.labels)
        if len(set(self.labels)) < L:
            raise ValueError("label set repeats a label")
        if OUTSIDE not in self.labels:
            raise ValueError("label set must contain O")
        types = {lab[2:] for lab in self.labels if lab != OUTSIDE}
        for lab in self.labels:
            if lab != OUTSIDE and lab[:2] not in ("B-", "I-"):
                raise ValueError("bad BIO label %r" % lab)
        for t in types:
            check_name(t, "slot type")
            if "B-" + t not in self.labels or "I-" + t not in self.labels:
                raise ValueError("label set not BIO-closed for type %r" % t)
        if self.emissions.shape != (len(self.feature_index), L):
            raise ValueError("emissions shape mismatch")
        if self.transitions.shape != (L, L):
            raise ValueError("transitions shape mismatch")
        if not (
            np.all(np.isfinite(self.emissions)) and np.all(np.isfinite(self.transitions))
        ):
            raise ValueError("weights must be finite")

    def feature_ids(self, tokens: Sequence[str]) -> list[np.ndarray]:
        """Known-feature ids per position; unseen features are dropped."""
        return [feature_ids(feats, self.feature_index)
                for feats in sequence_features(tokens, self.gazetteers)]

    def emission_scores(self, tokens: Sequence[str]) -> np.ndarray:
        ids = self.feature_ids(tokens)
        E = np.zeros((len(tokens), len(self.labels)))
        for t, row in enumerate(ids):
            E[t] = self.emissions[row].sum(axis=0)
        return E

    def save(self, path) -> None:
        save_model(self, path, "crf-model", _FILE_KEYS)

    @classmethod
    def load(cls, path) -> "CrfModel":
        return load_model(cls, path, "crf-model", _FILE_KEYS)


# --- objective --------------------------------------------------------------


class _Design:
    """Sparse feature matrix and gold label counts of (tokens, BIO labels)
    pairs, with the features of `feature_index` (`grow` as in
    `modelio.feature_ids`).

    Sequences are grouped by length, and the rows of the feature matrix run
    group by group, time-major within a group: the emission scores of a
    group of N sequences of length T are one contiguous (T * N, L) block,
    so the recursions step over contiguous (N, L) slices.
    """

    def __init__(self, pairs, labels: Sequence[str], feature_index: dict[str, int],
                 gazetteers: Gazetteers, grow: bool = False):
        label_index = {lab: i for i, lab in enumerate(labels)}
        sequences = []  # (per-position feature-id arrays, label ids)
        for tokens, tags in pairs:
            if len(tokens) != len(tags):
                raise ValueError("token/label length mismatch")
            try:
                label_ids = [label_index[lab] for lab in tags]
            except KeyError as exc:
                raise ValueError("label %s not in model label set" % exc) from None
            sequences.append(([feature_ids(feats, feature_index, grow)
                               for feats in sequence_features(tokens, gazetteers)], label_ids))
        n_features, n_labels = len(feature_index), len(labels)
        by_length: dict[int, list[int]] = {}
        for idx, (fid_lists, _) in enumerate(sequences):
            by_length.setdefault(len(fid_lists), []).append(idx)
        rows, gold = [], []
        self.groups = []  # (first row, T, N)
        for T in sorted(by_length):
            members = by_length[T]
            self.groups.append((len(rows), T, len(members)))
            for t in range(T):
                for i in members:
                    rows.append(sequences[i][0][t])
                    gold.append(sequences[i][1][t])
        self.phi = design_matrix(rows, n_features)
        # Feature/label and label-bigram counts of the gold sequences: the
        # score of every gold path together, and the empirical side of the
        # gradient.  The feature/label counts stay integers, which the float
        # arithmetic below takes exactly.
        ids = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
        id_labels = np.repeat(np.asarray(gold, dtype=np.int64), [len(r) for r in rows])
        self.gold_emissions = np.bincount(
            ids * n_labels + id_labels, minlength=n_features * n_labels
        ).reshape(n_features, n_labels)
        self.gold_transitions = np.zeros((n_labels, n_labels))
        for _, labels in sequences:
            for a, b in zip(labels, labels[1:]):
                self.gold_transitions[a, b] += 1.0

    def nll_and_grad(self, emissions: np.ndarray, transitions: np.ndarray, l2: float):
        """Regularized NLL and its gradient over the whole design."""
        M = np.asarray(self.phi @ emissions)
        G_pos = np.empty_like(M)
        g_tr = -self.gold_transitions
        log_z_total = 0.0
        L = M.shape[1]
        for start, T, N in self.groups:
            block = slice(start, start + T * N)
            E = M[block].reshape(T, N, L)
            marginals = _scaled_forward_backward(E, transitions)
            if marginals is None:
                marginals = _log_forward_backward(E, transitions)
            log_z, node, pair = marginals
            G_pos[block] = node.reshape(T * N, L)
            g_tr += pair
            log_z_total += float(log_z.sum())
        gold_score = float(np.sum(self.gold_emissions * emissions)) + float(
            np.sum(self.gold_transitions * transitions)
        )
        value = log_z_total - gold_score + 0.5 * l2 * (
            float(np.sum(emissions**2)) + float(np.sum(transitions**2))
        )
        g_em = np.asarray(self.phi.T @ G_pos) - self.gold_emissions + l2 * emissions
        g_tr += l2 * transitions
        return value, g_em, g_tr


_TINY = np.finfo(float).tiny  # smallest normal positive float


def _scaled_forward_backward(E: np.ndarray, transitions: np.ndarray):
    """log Z, node marginals and summed pair marginals of one length group.

    `E` holds the (T, N, L) emission scores of N sequences of length T.  The
    recursions run in probability space on potentials shifted so that their
    largest entry is 1, and each forward step is normalised by its sum s_t
    (Rabiner's scaling): log Z = sum_t log s_t plus the shifts, and the
    backward pass divides by the same s_t.  Returns None when a scaler is
    not a normal positive float or a backward value is not finite -- weights
    large enough to underflow a whole step, as the line search's longest
    trial steps produce -- so that the caller can use the log-space form.
    """
    T, N, L = E.shape
    top = transitions.max()
    A = np.exp(transitions - top)
    rowmax = E.max(axis=2, keepdims=True)
    psi = np.exp(E - rowmax)
    alpha = np.empty_like(psi)
    scale = np.empty((T, N, 1))
    for t in range(T):
        a = psi[0] if t == 0 else (alpha[t - 1] @ A) * psi[t]
        scale[t, :, 0] = a.sum(axis=1)
        if not np.all(scale[t] >= _TINY):
            return None
        alpha[t] = a / scale[t]
    beta = np.empty_like(psi)
    beta[T - 1] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T - 2, -1, -1):
            beta[t] = ((psi[t + 1] * beta[t + 1]) @ A.T) / scale[t + 1]
    if not np.all(np.isfinite(beta)):
        return None
    log_z = np.log(scale).sum(axis=(0, 2)) + rowmax.sum(axis=(0, 2)) + (T - 1) * top
    after = psi[1:] * beta[1:] / scale[1:]
    pair = A * (alpha[:-1].reshape(-1, L).T @ after.reshape(-1, L))
    return log_z, alpha * beta, pair


def _log_forward_backward(E: np.ndarray, transitions: np.ndarray):
    """The same marginals as `_scaled_forward_backward`, in log space.

    Slower, through (N, L, L) temporaries, but free of underflow at any
    weight scale.
    """
    T = E.shape[0]
    alpha = np.empty_like(E)
    alpha[0] = E[0]
    for t in range(1, T):
        alpha[t] = E[t] + logsumexp(
            alpha[t - 1][:, :, None] + transitions[None, :, :], axis=1
        )
    log_z = logsumexp(alpha[T - 1], axis=1)
    beta = np.zeros_like(E)
    for t in range(T - 2, -1, -1):
        beta[t] = logsumexp(
            transitions[None, :, :] + (E[t + 1] + beta[t + 1])[:, None, :], axis=2
        )
    node = np.exp(alpha + beta - log_z[None, :, None])
    pair = np.zeros_like(transitions)
    for t in range(1, T):
        pair += np.exp(
            alpha[t - 1][:, :, None]
            + transitions[None, :, :]
            + (E[t] + beta[t])[:, None, :]
            - log_z[:, None, None]
        ).sum(axis=0)
    return log_z, node, pair


def crf_objective(model: CrfModel, corpus) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Regularized NLL of labeled sequences and its gradient.

    `corpus` holds (tokens, BIO labels) pairs.  Returns the objective value
    and gradients with the shapes of (emissions, transitions).
    """
    design = _Design(corpus, model.labels, model.feature_index, model.gazetteers)
    value, g_em, g_tr = design.nll_and_grad(model.emissions, model.transitions, model.l2)
    return value, (g_em, g_tr)


# --- decoding ---------------------------------------------------------------


def viterbi(model: CrfModel, tokens: Sequence[str]) -> tuple[list[str], float]:
    """Highest-scoring label sequence and its unnormalized score."""
    tokens = tuple(tokens)
    if not tokens:
        raise ValueError("cannot tag an empty token sequence")
    E = model.emission_scores(tokens)
    T, L = E.shape
    delta = E[0]
    back = np.zeros((T, L), dtype=np.int64)
    for t in range(1, T):
        cand = delta[:, None] + model.transitions  # (prev, next)
        back[t] = np.argmax(cand, axis=0)
        delta = E[t] + np.max(cand, axis=0)
    last = int(np.argmax(delta))
    score = float(delta[last])
    path = [last]
    for t in range(T - 1, 0, -1):
        path.append(int(back[t, path[-1]]))
    path.reverse()
    return [model.labels[i] for i in path], score


def tag_slots(model: CrfModel, tokens: Sequence[str]) -> tuple[SlotSpan, ...]:
    """Decode tokens into slot spans (BIO repair applied)."""
    labels, _ = viterbi(model, tokens)
    return bio_decode(tokens, labels)


# --- training ---------------------------------------------------------------


def train_slot_tagger(
    corpus: Sequence[Utterance],
    hyper: TrainingConfig = TrainingConfig(),
    gazetteers: Gazetteers | None = None,
    name: str = "CRF slot tagger",
) -> CrfModel:
    """Fit CRF weights on an annotated corpus.

    Deterministic: the label set is sorted, the feature index is built in
    first-seen corpus order, and the optimizer takes the same path for the
    same inputs.  Stopping at the iteration cap logs a warning naming `name`.
    """
    if not corpus:
        raise ValueError("cannot train on an empty corpus")
    gazetteers = dict(gazetteers or {})
    labels = bio_labels(s.slot_type for u in corpus for s in u.slots)
    feature_index: dict[str, int] = {}
    design = _Design([(u.tokens, bio_encode(u)) for u in corpus], labels, feature_index,
                     gazetteers, grow=True)
    F, L = len(feature_index), len(labels)

    def fun_grad(x: np.ndarray):
        em = x[: F * L].reshape(F, L)
        tr = x[F * L :].reshape(L, L)
        value, g_em, g_tr = design.nll_and_grad(em, tr, hyper.l2)
        return value, np.concatenate([g_em.ravel(), g_tr.ravel()])

    result = minimize(fun_grad, np.zeros(F * L + L * L), hyper.max_iterations,
                      hyper.tolerance, name=name)
    return CrfModel(
        labels=labels,
        feature_index=feature_index,
        emissions=result.x[: F * L].reshape(F, L),
        transitions=result.x[F * L :].reshape(L, L),
        gazetteers=gazetteers,
        l2=hyper.l2,
    )
