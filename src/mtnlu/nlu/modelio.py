"""JSON model files shared by the slot tagger and the intent classifier.

A model file is one line of JSON with sorted keys and no spaces, tagged
with its format name and version 1, so that the same weights always give
the same bytes.
"""

from __future__ import annotations

import json

from ..corpus import Catalog, CatalogEntry
from .features import Gazetteers


def index_to_list(index: dict[str, int]) -> list[str]:
    """Feature names ordered by their index."""
    out = [""] * len(index)
    for f, i in index.items():
        out[i] = f
    return out


def gazetteers_to_json(gazetteers: Gazetteers) -> list:
    return [
        [t, [[list(e.tokens), e.weight] for e in gazetteers[t].entries]]
        for t in sorted(gazetteers)
    ]


def gazetteers_from_json(obj) -> dict[str, Catalog]:
    return {
        t: Catalog(t, tuple(CatalogEntry(tuple(tok), w) for tok, w in entries))
        for t, entries in obj
    }


def dump_model(obj, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_model(path, expected_format: str):
    """The JSON object in `path`; ValueError unless it is a version-1 `expected_format`."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if obj.get("format") != expected_format or obj.get("version") != 1:
        raise ValueError(
            "%s is not a version-1 %s file" % (path, expected_format)
        )
    return obj
