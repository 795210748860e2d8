"""Slot tagging (linear-chain CRF) and intent classification (MaxEnt)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..corpus import SlotSpan
from .crf import (
    CrfModel,
    bio_decode,
    bio_encode,
    bio_labels,
    crf_objective,
    tag_slots,
    train_slot_tagger,
    viterbi,
)
from .features import intent_features, sequence_features
from .maxent import (
    MaxEntModel,
    classify_intent,
    intent_posteriors,
    maxent_objective,
    train_intent_classifier,
)
from .optim import MinimizeResult, TrainingConfig, minimize

__all__ = [
    "CrfModel",
    "MaxEntModel",
    "MinimizeResult",
    "NluHypothesis",
    "TrainingConfig",
    "bio_decode",
    "bio_encode",
    "bio_labels",
    "classify_intent",
    "crf_objective",
    "intent_features",
    "intent_posteriors",
    "maxent_objective",
    "minimize",
    "predict",
    "sequence_features",
    "tag_slots",
    "train_intent_classifier",
    "train_slot_tagger",
    "viterbi",
]


@dataclass(frozen=True)
class NluHypothesis:
    """Joint output of the tagger and classifier for one utterance."""

    intent: str
    intent_confidence: float
    slots: tuple[SlotSpan, ...]

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(self.slots))
        if not (0.0 <= self.intent_confidence <= 1.0):
            raise ValueError("confidence must be in [0, 1]")


def predict(crf: CrfModel, maxent: MaxEntModel, tokens: Sequence[str]) -> NluHypothesis:
    """Run both models on one token sequence."""
    intent, confidence = classify_intent(maxent, tokens)
    return NluHypothesis(intent, confidence, tag_slots(crf, tokens))
