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


def gazetteer_hits(tokens: Sequence[str], gazetteers: Gazetteers | None) -> list[set[str]]:
    """Per-position set of slot types whose catalog contains a matching n-gram.

    Matching is done on lowercased tokens; catalog entries are stored
    lowercased already.
    """
    n = len(tokens)
    hits: list[set[str]] = [set() for _ in range(n)]
    lowered = tuple(t.lower() for t in tokens)
    for slot_type, catalog in (gazetteers or {}).items():
        for m, entries in catalog.entries_by_length.items():
            for i in range(n - m + 1):
                if lowered[i : i + m] in entries:
                    for k in range(i, i + m):
                        hits[k].add(slot_type)
    return hits


def _position_features(padded: Sequence[str], i: int, hits: list[set[str]]) -> list[str]:
    """Features of token i; `padded` holds the tokens between two pads a side."""
    tok = padded[i + 2]
    feats = [
        "w0=" + tok,
        "w-1=" + padded[i + 1],
        "w-2=" + padded[i],
        "w+1=" + padded[i + 3],
        "w+2=" + padded[i + 4],
    ]
    for k in (1, 2, 3):
        if len(tok) >= k:
            feats.append("p%d=%s" % (k, tok[:k]))
            feats.append("s%d=%s" % (k, tok[-k:]))
    for slot_type in sorted(hits[i]):
        feats.append("gaz:" + slot_type)
    return feats


def sequence_features(
    tokens: Sequence[str], gazetteers: Gazetteers | None = None
) -> list[list[str]]:
    """Tagger features of every position, scanning gazetteers once; their
    order and content are deterministic."""
    hits = gazetteer_hits(tokens, gazetteers)
    padded = (PAD_LEFT, PAD_LEFT, *tokens, PAD_RIGHT, PAD_RIGHT)
    return [_position_features(padded, i, hits) for i in range(len(tokens))]


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
