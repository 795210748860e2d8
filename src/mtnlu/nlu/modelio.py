"""What the slot tagger and the intent classifier share: feature ids, the
sparse design matrix, `logsumexp` and the model file.

A model file is one line of JSON with sorted keys and no spaces, so that the
same weights always give the same bytes.  Both models write one envelope --
``format``, ``version`` (1), ``l2``, ``features`` (the names in id order) and
``gazetteers`` (``[slot type, [[tokens, weight], ...]]`` pairs) -- plus their
own keys, each named after the model field it holds.  `load_model` turns any
malformed file, or one with a key it does not know, into one `FormatError`
that names the file.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..corpus import Catalog, NonNegative, checked, parse, read_json, write_lines
from ..errors import FormatError


def feature_ids(feats: Iterable[str], index: dict[str, int], grow: bool = False) -> np.ndarray:
    """Ids of `feats` in `index`: with `grow` (training) a new feature gets the
    next free id, without it (inference) features not in `index` are dropped."""
    if grow:
        ids = [index.setdefault(f, len(index)) for f in feats]
    else:
        ids = [index[f] for f in feats if f in index]
    return np.asarray(ids, dtype=np.int64)


def design_matrix(rows: Sequence[Sequence[int]], n_columns: int):
    """CSR matrix with one row per id list and a 1 at each id; repeated ids add up."""
    from scipy import sparse  # training only: inference needs no scipy

    cols = np.concatenate(rows) if len(rows) else np.zeros(0, dtype=np.int64)
    row_ids = np.repeat(np.arange(len(rows)), [len(ids) for ids in rows])
    return sparse.csr_matrix((np.ones(len(cols)), (row_ids, cols)), shape=(len(rows), n_columns))


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along `axis` for finite real `a`.

    The same steps as `scipy.special.logsumexp` (scipy 1.17), so the results
    agree to the last bit: the maxima are counted and left out of the
    shifted sum, which then enters through log1p.
    """
    top = a.max(axis, keepdims=True)
    is_top = a == top
    m = is_top.sum(axis, keepdims=True, dtype=a.dtype)
    s = np.exp(np.where(is_top, -np.inf, a) - top).sum(axis, keepdims=True)
    s = s / m
    return np.squeeze(np.log1p(s) + np.log(m) + top, axis)


# the envelope keys that every model file holds, with their annotations
_ENVELOPE = {"format": str, "version": int, "l2": NonNegative, "features": tuple[str, ...],
             "gazetteers": tuple[Catalog, ...]}


def _catalogs_json(catalogs: Mapping[str, Catalog]) -> list:
    """`catalogs` as the ``gazetteers`` value of a model file."""
    return [[t, [[list(e.tokens), e.weight] for e in catalogs[t].entries]]
            for t in sorted(catalogs)]


def save_model(model, path, fmt: str, keys: Iterable[str]) -> None:
    """Write `model` as a `fmt` file: the envelope plus the model fields `keys`."""
    index = model.feature_index
    obj = dict(
        {key: getattr(model, key) for key in keys},
        format=fmt, version=1, l2=model.l2, features=sorted(index, key=index.__getitem__),
        gazetteers=_catalogs_json(model.gazetteers),
    )
    write_lines(path, [json.dumps(obj, sort_keys=True, separators=(",", ":"),
                                  default=np.ndarray.tolist)])


def load_model(cls, path, fmt: str, keys: Mapping[str, object],
               catalogs: Mapping[str, Catalog] | None = None):
    """The `cls` model in the `fmt` file at `path`; `keys` maps the model's
    own keys to their annotations (see `corpus.parse`).  The second file of a
    pair reuses the first's `catalogs` if it holds the same values.  A
    ``true`` weight is not taken for ``1``; ``1`` and ``1.0``, or ``-0.0``
    and ``0.0``, count as the same weight, as they give the same model."""
    obj = read_json(path)
    if not (isinstance(obj, dict) and obj.get("format") == fmt
            and type(obj.get("version")) is int and obj["version"] == 1):
        raise FormatError("not a version-1 %s file" % fmt, path=path)
    hints = {**_ENVELOPE, **keys}
    raw = obj.get("gazetteers")
    shared = catalogs is not None and raw == _catalogs_json(catalogs) and not any(
        type(weight) is bool for _, entries in raw for _, weight in entries)
    if shared:
        del hints["gazetteers"], obj["gazetteers"]
    values = checked(path, None, parse, hints, obj, fmt)
    if not shared:
        catalogs = {c.slot_type: c for c in values["gazetteers"]}
        if len(catalogs) < len(values["gazetteers"]):
            raise FormatError("gazetteers repeat a slot type", path=path)
    features = values.pop("features")
    return checked(path, None, cls, feature_index={f: i for i, f in enumerate(features)},
                   gazetteers=dict(catalogs), **{k: values[k] for k in keys}, l2=values["l2"])
