"""Slot-value post-processing for translated corpora.

Two complementary transforms and their combination:

* resampling — redraw the value of configured slot types from a weighted
  target-language catalog, so entity distributions match the target locale
  rather than the source corpus;
* retention — copy the original source-language value back into the slot
  (song titles, artist names and similar should survive translation
  verbatim).

One pass per utterance decides each slot's value once (see
`combined_postprocess`) and rebuilds the token sequence and every slot span,
so outputs always satisfy the corpus invariants.  Randomness is drawn from
per-utterance streams derived from ``(seed, purpose, utterance id)``; the
processing order of utterances therefore cannot change any output.
"""

from __future__ import annotations

import random

from dataclasses import dataclass, replace

from .corpus import Catalog, Utterance, assemble, segments
from .errors import ConfigError

MULTIPLICITY_MISMATCH = "MULTIPLICITY_MISMATCH"


@dataclass(frozen=True)
class PostprocessConfig:
    """Which slot types get which treatment.

    Types listed in both sets are resampled with probability
    ``mix_probability`` and keep the (retained) source value otherwise,
    decided independently per slot instance.  The seed of the draws is not
    part of the config: `combined_postprocess` takes it as an argument.
    """

    resample_slots: frozenset[str] = frozenset()
    retain_original_slots: frozenset[str] = frozenset()
    mix_probability: float = 0.5

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
    parts = []
    index = 0
    for part, slot_type in segments(utterance):
        if slot_type is not None:
            part = replacements.get(index, part)
            index += 1
        parts.append((part, slot_type))
    return Utterance(utterance.id, utterance.domain, utterance.intent, *assemble(parts))


def _stream(seed: int, purpose: str, uid: str) -> random.Random:
    return random.Random("%s|%s|%s" % (seed, purpose, uid))


def check_resample_catalogs(types: frozenset[str], catalogs: dict[str, Catalog]) -> None:
    """Raise ConfigError unless every slot type in `types` has a catalog."""
    missing = sorted(t for t in types if t not in catalogs)
    if missing:
        raise ConfigError("no catalog for resampled slot types: %s" % ", ".join(missing))


def resample_slots(
    corpus: list[Utterance],
    catalogs: dict[str, Catalog],
    config: PostprocessConfig,
    seed: int = 0,
) -> list[Utterance]:
    """Redraw configured slot values from weighted catalogs."""
    return combined_postprocess(
        corpus, [], catalogs, replace(config, retain_original_slots=frozenset()), seed)


def retain_original_slots(
    translated_corpus: list[Utterance],
    source_corpus: list[Utterance],
    config: PostprocessConfig,
    stats: dict[str, int] | None = None,
) -> list[Utterance]:
    """Copy source-language values back into configured slots.

    The k-th slot of a configured type takes the value of the k-th slot of
    that type in the source utterance with the same id.  Utterances where
    the two sides disagree on the number of slots of a configured type pass
    through unchanged; ``stats`` (if given) counts them under
    MULTIPLICITY_MISMATCH.
    """
    return combined_postprocess(translated_corpus, source_corpus, {},
                                replace(config, resample_slots=frozenset()), stats=stats)


def _retained(
    u: Utterance, source: Utterance, types: frozenset[str], stats: dict[str, int] | None
) -> dict[int, tuple[str, ...]]:
    """Slot index -> source value for every slot of `u` whose type is in
    `types`, paired k-th to k-th per type; empty, counted once as
    MULTIPLICITY_MISMATCH, if some such type has another slot count in `source`."""
    retained: dict[int, tuple[str, ...]] = {}
    for slot_type in sorted(types):
        indices = [i for i, s in enumerate(u.slots) if s.slot_type == slot_type]
        values = [source.tokens[s.start : s.end] for s in source.slots
                  if s.slot_type == slot_type]
        if len(indices) != len(values):
            if stats is not None:
                stats[MULTIPLICITY_MISMATCH] = stats.get(MULTIPLICITY_MISMATCH, 0) + 1
            return {}
        retained.update(zip(indices, values))
    return retained


def combined_postprocess(
    translated_corpus: list[Utterance],
    source_corpus: list[Utterance],
    catalogs: dict[str, Catalog],
    config: PostprocessConfig,
    seed: int = 0,
    stats: dict[str, int] | None = None,
) -> list[Utterance]:
    """Decide each slot's value once, in slot order.

    A slot of a resampled type is redrawn from its catalog by the
    utterance's "resample" stream, seeded from ``(seed, utterance id)``; if
    its type is also retained, only when the utterance's "mix" stream comes
    up below ``mix_probability``.  A slot not redrawn takes the retained
    value of the source utterance with the same id (see
    `retain_original_slots`) when its type is retained, and keeps its value
    otherwise.
    """
    resample, retain = config.resample_slots, config.retain_original_slots
    sources = {u.id: u for u in source_corpus}
    for u in translated_corpus:
        if retain and u.id not in sources:
            raise ConfigError("utterance %s: not in source corpus" % u.id)
    check_resample_catalogs(resample, catalogs)
    out = []
    for u in translated_corpus:
        replacements = _retained(u, sources[u.id], retain, stats) if retain else {}
        redraw = [(i, s.slot_type) for i, s in enumerate(u.slots) if s.slot_type in resample]
        if redraw:  # seeding a stream costs more than a draw: only where one is read
            rng_value = _stream(seed, "resample", u.id)
            rng_mix = _stream(seed, "mix", u.id)
        for idx, t in redraw:
            if t not in retain or rng_mix.random() < config.mix_probability:
                replacements[idx] = catalogs[t].draw(rng_value).tokens
        out.append(replace_slot_values(u, replacements))
    return out
