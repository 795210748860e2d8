"""Feature templates for the slot tagger and the intent classifier.

Tagger features per position: token identities in a +-2 window (with
boundary padding), prefixes and suffixes of the current token up to length
3, and gazetteer membership -- a ``gaz:<SlotType>`` feature fires on every
token that participates in an occurrence of a catalog entry n-gram.
Intent features are a bag: token unigrams, adjacent bigrams, and the
gazetteer types present anywhere in the utterance.

Gazetteer lookup uses each catalog's index, `Catalog.entries_by_length`:
its entry token tuples grouped by length into frozensets, built once per
catalog on first use.  Every n-gram of the utterance whose length occurs in
the catalog is one set lookup, so a scan costs O(tokens x distinct entry
lengths) per slot type, whatever the number of entries.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..corpus import Catalog

PAD_LEFT = "<BOS>"
PAD_RIGHT = "<EOS>"

Gazetteers = Mapping[str, Catalog]


def _token_at(tokens: Sequence[str], i: int) -> str:
    if i < 0:
        return PAD_LEFT
    if i >= len(tokens):
        return PAD_RIGHT
    return tokens[i]


def gazetteer_hits(tokens: Sequence[str], gazetteers: Gazetteers | None) -> list[set[str]]:
    """Per-position set of slot types whose catalog contains a matching n-gram.

    Matching is done on lowercased tokens; catalog entries are stored
    lowercased already.
    """
    n = len(tokens)
    hits: list[set[str]] = [set() for _ in range(n)]
    if not gazetteers:
        return hits
    lowered = [t.lower() for t in tokens]
    for slot_type in sorted(gazetteers):
        for m, entries in gazetteers[slot_type].entries_by_length.items():
            for i in range(n - m + 1):
                if tuple(lowered[i : i + m]) in entries:
                    for k in range(i, i + m):
                        hits[k].add(slot_type)
    return hits


def _position_features(tokens: Sequence[str], i: int, hits: list[set[str]]) -> list[str]:
    tok = tokens[i]
    feats = [
        "w0=" + tok,
        "w-1=" + _token_at(tokens, i - 1),
        "w-2=" + _token_at(tokens, i - 2),
        "w+1=" + _token_at(tokens, i + 1),
        "w+2=" + _token_at(tokens, i + 2),
    ]
    for k in (1, 2, 3):
        if len(tok) >= k:
            feats.append("p%d=%s" % (k, tok[:k]))
            feats.append("s%d=%s" % (k, tok[-k:]))
    for slot_type in sorted(hits[i]):
        feats.append("gaz:" + slot_type)
    return feats


def extract_features(
    tokens: Sequence[str], position: int, gazetteers: Gazetteers | None = None
) -> list[str]:
    """Tagger features for one position; order and content are deterministic."""
    if not 0 <= position < len(tokens):
        raise ValueError("position %d out of range" % position)
    return _position_features(tokens, position, gazetteer_hits(tokens, gazetteers))


def sequence_features(
    tokens: Sequence[str], gazetteers: Gazetteers | None = None
) -> list[list[str]]:
    """`extract_features` for every position, scanning gazetteers once."""
    hits = gazetteer_hits(tokens, gazetteers)
    return [_position_features(tokens, i, hits) for i in range(len(tokens))]


def intent_features(
    tokens: Sequence[str], gazetteers: Gazetteers | None = None
) -> list[str]:
    """Bag-of-features for the intent classifier (deduplicated, sorted)."""
    feats = {"bias"}
    for t in tokens:
        feats.add("bow=" + t)
    for a, b in zip(tokens, tokens[1:]):
        feats.add("bow2=%s %s" % (a, b))
    for hit in gazetteer_hits(tokens, gazetteers):
        for slot_type in hit:
            feats.add("gaz:" + slot_type)
    return sorted(feats)
