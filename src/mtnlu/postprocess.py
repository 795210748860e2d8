"""Slot-value post-processing for translated corpora.

Two complementary transforms and their combination:

* resampling — redraw the value of configured slot types from a weighted
  target-language catalog, so entity distributions match the target locale
  rather than the source corpus;
* retention — copy the original source-language value back into the slot
  (song titles, artist names and similar should survive translation
  verbatim).

Both transforms rebuild the token sequence and re-index every slot span, so
outputs always satisfy the corpus invariants.  Randomness is drawn from
per-utterance streams derived from ``(seed, purpose, utterance id)``; the
processing order of utterances therefore cannot change any output.
"""

from __future__ import annotations

import random

from dataclasses import dataclass, field

from .corpus import Catalog, Utterance, make_span
from .errors import ConfigError

MULTIPLICITY_MISMATCH = "MULTIPLICITY_MISMATCH"


@dataclass(frozen=True)
class PostprocessConfig:
    """Which slot types get which treatment.

    Types listed in both sets are resampled with probability
    ``mix_probability`` and keep the (retained) source value otherwise,
    decided independently per slot instance.
    """

    resample_slots: frozenset[str] = frozenset()
    retain_original_slots: frozenset[str] = frozenset()
    mix_probability: float = 0.5
    # derived from the run seed by the pipeline, so not a config file key
    seed: int = field(default=0, metadata={"config": False})

    def __post_init__(self) -> None:
        object.__setattr__(self, "resample_slots", frozenset(self.resample_slots))
        object.__setattr__(
            self, "retain_original_slots", frozenset(self.retain_original_slots)
        )
        p = self.mix_probability
        if not isinstance(p, (int, float)) or not 0.0 <= float(p) <= 1.0:
            raise ConfigError("mix_probability must lie in [0, 1], got %r" % (p,))


def replace_slot_values(
    utterance: Utterance, replacements: dict[int, tuple[str, ...]]
) -> Utterance:
    """Return a copy with the given slots' value tokens substituted.

    ``replacements`` maps slot index (position in ``utterance.slots``) to the
    new value tokens.  All later spans shift to absorb length changes.
    """
    if not replacements:
        return utterance
    tokens: list[str] = []
    spans: list[tuple[str, int, int]] = []
    cursor = 0
    offset = 0
    for idx, span in enumerate(utterance.slots):
        tokens.extend(utterance.tokens[cursor : span.start])
        value = replacements.get(idx, utterance.tokens[span.start : span.end])
        start = span.start + offset
        tokens.extend(value)
        spans.append((span.slot_type, start, start + len(value)))
        offset += len(value) - (span.end - span.start)
        cursor = span.end
    tokens.extend(utterance.tokens[cursor:])
    final = tuple(tokens)
    return Utterance(
        utterance.id,
        utterance.language,
        utterance.domain,
        utterance.intent,
        final,
        tuple(make_span(final, t, a, b) for t, a, b in spans),
        source_id=utterance.source_id,
    )


def _stream(seed: int, purpose: str, uid: str) -> random.Random:
    return random.Random("%s|%s|%s" % (seed, purpose, uid))


def check_resample_catalogs(types: frozenset[str], catalogs: dict[str, Catalog]) -> None:
    """Raise ConfigError unless every slot type in `types` has a catalog."""
    missing = sorted(t for t in types if t not in catalogs)
    if missing:
        raise ConfigError("no catalog for resampled slot types: %s" % ", ".join(missing))


def _resample_pass(
    corpus: list[Utterance],
    catalogs: dict[str, Catalog],
    config: PostprocessConfig,
    mixed: bool,
) -> list[Utterance]:
    check_resample_catalogs(config.resample_slots, catalogs)
    if not config.resample_slots:
        return list(corpus)
    # slot types treated by both transforms flip a separate coin per instance
    overlap = config.resample_slots & config.retain_original_slots if mixed else frozenset()
    out = []
    for u in corpus:
        rng_value = _stream(config.seed, "resample", u.id)
        rng_mix = _stream(config.seed, "mix", u.id)
        replacements: dict[int, tuple[str, ...]] = {}
        for idx, span in enumerate(u.slots):
            if span.slot_type not in config.resample_slots:
                continue
            if span.slot_type in overlap and not rng_mix.random() < config.mix_probability:
                continue
            catalog = catalogs[span.slot_type]
            entry = rng_value.choices(
                catalog.entries, weights=[e.weight for e in catalog.entries]
            )[0]
            replacements[idx] = entry.tokens
        out.append(replace_slot_values(u, replacements))
    return out


def resample_slots(
    corpus: list[Utterance],
    catalogs: dict[str, Catalog],
    config: PostprocessConfig,
) -> list[Utterance]:
    """Redraw configured slot values from weighted catalogs."""
    return _resample_pass(corpus, catalogs, config, mixed=False)


def retain_original_slots(
    translated_corpus: list[Utterance],
    source_corpus: list[Utterance],
    config: PostprocessConfig,
    stats: dict[str, int] | None = None,
) -> list[Utterance]:
    """Copy source-language values back into configured slots.

    The k-th slot of a configured type takes the value of the k-th slot of
    that type in the source utterance.  Utterances where the two sides
    disagree on the number of slots of a configured type pass through
    unchanged; ``stats`` (if given) counts them under MULTIPLICITY_MISMATCH.
    """
    if not config.retain_original_slots:
        return list(translated_corpus)
    sources = {u.id: u for u in source_corpus}
    out = []
    for u in translated_corpus:
        source = sources.get(u.source_id) if u.source_id is not None else None
        if source is None:
            raise ConfigError(
                "utterance %s: source_id %r not in source corpus" % (u.id, u.source_id)
            )
        out.append(_retain_one(u, source, config, stats))
    return out


def _retain_one(
    u: Utterance,
    source: Utterance,
    config: PostprocessConfig,
    stats: dict[str, int] | None,
) -> Utterance:
    values_by_type: dict[str, list[tuple[str, ...]]] = {}
    for span in source.slots:
        values_by_type.setdefault(span.slot_type, []).append(
            source.tokens[span.start : span.end]
        )
    for slot_type in sorted(config.retain_original_slots):
        n_source = len(values_by_type.get(slot_type, ()))
        n_target = sum(1 for s in u.slots if s.slot_type == slot_type)
        if n_source != n_target:
            if stats is not None:
                stats[MULTIPLICITY_MISMATCH] = stats.get(MULTIPLICITY_MISMATCH, 0) + 1
            return u
    seen: dict[str, int] = {}
    replacements: dict[int, tuple[str, ...]] = {}
    for idx, span in enumerate(u.slots):
        if span.slot_type in config.retain_original_slots:
            k = seen.get(span.slot_type, 0)
            seen[span.slot_type] = k + 1
            replacements[idx] = values_by_type[span.slot_type][k]
    return replace_slot_values(u, replacements)


def combined_postprocess(
    translated_corpus: list[Utterance],
    source_corpus: list[Utterance],
    catalogs: dict[str, Catalog],
    config: PostprocessConfig,
    stats: dict[str, int] | None = None,
) -> list[Utterance]:
    """Retention first, then resampling.

    Slot types configured for both are resampled with probability
    ``mix_probability`` per instance and keep the retained source value
    otherwise.
    """
    retained = retain_original_slots(translated_corpus, source_corpus, config, stats)
    return _resample_pass(retained, catalogs, config, mixed=True)
