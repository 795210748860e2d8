"""Filters that clean a translated corpus before NLU training.

Two independent mechanisms:

* `roundtrip_filter` keeps an utterance only when translating it forward,
  translating the result back, and re-running source-language NLU lands on
  the same interpretation it started with.  Stricter modes also compare
  slots or require a minimum intent confidence on the back-translation.
  It is its forward half, `project_corpus` (the pipeline's project stage),
  followed by `roundtrip_check`.  The pipeline's semantic filter runs
  `roundtrip_check` on the project stage's projections when the run has
  that stage, so each utterance is projected once.

* `score_filter` keeps an utterance only when its length-normalized
  translation score clears a per-domain threshold of mean + k * stdev.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .corpus import SlotSpan, Utterance
from .errors import ConfigError
from .nlu import CrfModel, MaxEntModel, intent_posteriors, tag_slots
from .translate import (
    ProjectionRejected,
    TranslationResult,
    Translator,
    project_annotations,
)

MODE_INTENT = "INTENT"
MODE_INTENT_SLOTS = "INTENT_SLOTS"
MODE_INTENT_CONFIDENCE = "INTENT_CONFIDENCE"
MODES = (MODE_INTENT, MODE_INTENT_SLOTS, MODE_INTENT_CONFIDENCE)

SLOTS_TYPES_ONLY = "TYPES_ONLY"
SLOTS_TYPES_AND_VALUES = "TYPES_AND_VALUES"
SLOT_COMPARISONS = (SLOTS_TYPES_ONLY, SLOTS_TYPES_AND_VALUES)

# Removal reasons recorded in FilterOutcome.removed.
NO_TRANSLATION = "NO_TRANSLATION"
NO_BACK_TRANSLATION = "NO_BACK_TRANSLATION"
INTENT_MISMATCH = "INTENT_MISMATCH"
SLOT_MISMATCH = "SLOT_MISMATCH"
LOW_CONFIDENCE = "LOW_CONFIDENCE"
BELOW_THRESHOLD = "BELOW_THRESHOLD"


@dataclass(frozen=True)
class FilterConfig:
    """Knobs for both filters.

    `score_multiplier` is the signed k in mean + k * stdev; None disables
    score filtering (keep everything).  `use_gold_labels` compares the
    back-translation's NLU output against the corpus annotations instead of
    the NLU output on the source utterance.
    """

    mode: str = MODE_INTENT
    confidence_threshold: float = 0.1
    score_multiplier: float | None = None
    slot_comparison: str = SLOTS_TYPES_ONLY
    use_gold_labels: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError("unknown filter mode %r" % self.mode)
        if self.slot_comparison not in SLOT_COMPARISONS:
            raise ConfigError("unknown slot comparison %r" % self.slot_comparison)
        if not (0.0 <= self.confidence_threshold <= 1.0):
            raise ConfigError("confidence threshold must be in [0, 1]")


@dataclass
class FilterOutcome:
    """Partition of the input: kept utterances plus (id, reason) removals."""

    kept: list[Utterance]
    removed: list[tuple[str, str]]

    @property
    def stats(self) -> dict[str, int]:
        """Number of removals per reason, in reason order."""
        return dict(sorted(Counter(reason for _, reason in self.removed).items()))


def _slot_key(slots: Iterable[SlotSpan], comparison: str) -> dict:
    counts: dict = {}
    for s in slots:
        key = s.slot_type if comparison == SLOTS_TYPES_ONLY else (
            s.slot_type, s.value.lower()
        )
        counts[key] = counts.get(key, 0) + 1
    return counts


def translated(corpus: Iterable[Utterance], translator: Translator, removed: list,
               reason: str = NO_TRANSLATION) -> Iterator[tuple[Utterance, TranslationResult]]:
    """Each utterance of `corpus` with its translation, in input order; one
    that `translator` cannot translate is appended to `removed` as
    (id, `reason`) instead."""
    for u in corpus:
        result = translator.translate(u.tokens, u.id)
        if result is None:
            removed.append((u.id, reason))
        else:
            yield u, result


def project_corpus(corpus: Sequence[Utterance], forward: Translator) -> FilterOutcome:
    """Translate each utterance with `forward` and carry its annotations onto
    the translation (see `project_annotations`).  A missing translation
    removes the utterance with NO_TRANSLATION, a rejected projection with the
    rejection's reason; the kept utterances are the projected targets."""
    kept: list[Utterance] = []
    removed: list[tuple[str, str]] = []
    for u, result in translated(corpus, forward, removed):
        try:
            kept.append(project_annotations(u, result))
        except ProjectionRejected as rejection:
            removed.append((u.id, rejection.reason))
    return FilterOutcome(kept, removed)


def roundtrip_check(
    projection: FilterOutcome,
    source_corpus: Sequence[Utterance],
    backward: Translator,
    source_nlu: tuple[CrfModel | None, MaxEntModel],
    config: FilterConfig,
) -> FilterOutcome:
    """Keep the projections whose interpretation survives a translation back.

    `projection` is what `project_corpus` made of `source_corpus`.  Per kept
    projection: translate it back, run source-language NLU on the
    back-translation and on the source utterance, and keep the projection
    only when the two NLU readings agree (see FilterConfig for the agreement
    criterion).  A missing back-translation removes the utterance with
    NO_BACK_TRANSLATION.  Removals, the projection's among them, are listed in
    input order.  The source utterance of a projection is found by its id, so
    ids must be unique, as `load_corpus` makes them.  The slot tagger of
    `source_nlu` is read only in the INTENT_SLOTS mode, and may be None in
    the others.
    """
    crf, maxent = source_nlu
    if crf is None and config.mode == MODE_INTENT_SLOTS:
        raise ValueError("the %s filter mode needs a source slot tagger" % MODE_INTENT_SLOTS)
    position = {u.id: i for i, u in enumerate(source_corpus)}
    kept: list[Utterance] = []
    removed = list(projection.removed)
    for projected, back in translated(projection.kept, backward, removed,
                                      NO_BACK_TRANSLATION):
        u = source_corpus[position[projected.id]]
        if config.use_gold_labels:
            ref_intent, ref_slots = u.intent, u.slots
        else:
            posteriors = intent_posteriors(maxent, u.tokens)
            ref_intent = max(posteriors, key=posteriors.get)
            ref_slots = (
                tag_slots(crf, u.tokens) if config.mode == MODE_INTENT_SLOTS else ()
            )
        back_posteriors = intent_posteriors(maxent, back.target_tokens)
        back_intent = max(back_posteriors, key=back_posteriors.get)
        if (
            config.mode == MODE_INTENT_CONFIDENCE
            and back_posteriors.get(ref_intent, 0.0) < config.confidence_threshold
        ):
            removed.append((u.id, LOW_CONFIDENCE))
        elif back_intent != ref_intent:
            removed.append((u.id, INTENT_MISMATCH))
        elif config.mode == MODE_INTENT_SLOTS and _slot_key(
            tag_slots(crf, back.target_tokens), config.slot_comparison
        ) != _slot_key(ref_slots, config.slot_comparison):
            removed.append((u.id, SLOT_MISMATCH))
        else:
            kept.append(projected)
    removed.sort(key=lambda r: position[r[0]])
    return FilterOutcome(kept, removed)


def roundtrip_filter(source_corpus: Sequence[Utterance], forward: Translator,
                     backward: Translator, source_nlu: tuple[CrfModel | None, MaxEntModel],
                     config: FilterConfig) -> FilterOutcome:
    """`roundtrip_check` of what `project_corpus` makes of `source_corpus` with `forward`."""
    return roundtrip_check(project_corpus(source_corpus, forward), source_corpus, backward,
                           source_nlu, config)


# --- score filtering ---------------------------------------------------------


@dataclass(frozen=True)
class DomainStats:
    """Mean and population stdev of normalized scores in one domain."""

    mean: float
    stdev: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("domain stats need at least one utterance")
        if self.stdev < 0:
            raise ValueError("stdev must be non-negative")


def normalize_score(weighted_total: float, target_length: int) -> float:
    """Length-normalized translation score."""
    if target_length < 1:
        raise ValueError("target length must be >= 1")
    return weighted_total / target_length


def _normalized(u: Utterance, translations: Mapping[str, TranslationResult]) -> float:
    result = translations.get(u.id)
    if result is None:
        raise ConfigError("no translation scores for utterance %r" % u.id)
    return normalize_score(result.scores.weighted_total, len(result.target_tokens))


def compute_domain_stats(
    corpus: Sequence[Utterance], translations: Mapping[str, TranslationResult]
) -> dict[str, DomainStats]:
    """Mean and population stdev of normalized scores, by domain."""
    by_domain: dict[str, list[float]] = {}
    for u in corpus:
        by_domain.setdefault(u.domain, []).append(_normalized(u, translations))
    return {d: DomainStats(*_mean_and_stdev(xs), len(xs)) for d, xs in by_domain.items()}


# a power of two that brings the square of any float within the float range
_SHRINK = 2.0 ** -600


def _mean_and_stdev(xs: list[float]) -> tuple[float, float]:
    """`statistics.fmean` and `statistics.pstdev` of `xs`.  Where a sum on the
    way passes the float maximum (fmean's sum, or pstdev's variance before
    Python 3.11), both are taken of `xs` times `_SHRINK` and scaled back:
    the bits they would have without a float maximum, unless a scaled score
    falls below the normal range."""
    try:
        return statistics.fmean(xs), statistics.pstdev(xs)
    except OverflowError:
        small = [x * _SHRINK for x in xs]
        return statistics.fmean(small) / _SHRINK, statistics.pstdev(small) / _SHRINK


_SCORE_TOLERANCE = 1e-9


def score_filter(
    corpus: Sequence[Utterance],
    translations: Mapping[str, TranslationResult],
    stats: Mapping[str, DomainStats],
    k: float | None,
) -> FilterOutcome:
    """Keep utterances whose normalized score is >= mean + k * stdev.

    k is signed: negative values widen the kept set below the domain mean,
    positive values keep only above-average translations.  k=None keeps
    everything.  The comparison allows a rounding margin of 1e-9, absolute
    or relative to the mean, so that scores equal up to rounding are kept
    or dropped together.
    """
    missing = sorted({u.domain for u in corpus} - set(stats))
    if missing:
        raise ConfigError("no domain stats for: %s" % ", ".join(missing))
    kept: list[Utterance] = []
    removed: list[tuple[str, str]] = []
    for u in corpus:
        if k is None:
            kept.append(u)
            continue
        st = stats[u.domain]
        margin = _SCORE_TOLERANCE * max(1.0, abs(st.mean))
        if _normalized(u, translations) >= st.mean + k * st.stdev - margin:
            kept.append(u)
        else:
            removed.append((u.id, BELOW_THRESHOLD))
    return FilterOutcome(kept, removed)
