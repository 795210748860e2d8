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
import math
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..corpus import Catalog, CatalogEntry, checked, read_json
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
    s = np.where(s == 0, s, s / m)
    return np.squeeze(np.log1p(s) + np.log(m) + top, axis)


def string_list(value) -> tuple[str, ...]:
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ValueError("must be a list of strings")
    return tuple(value)


def number_matrix(value) -> np.ndarray:
    try:
        array = np.asarray(value)
        # numpy reads a JSON true in a list of numbers as 1.0
        if array.ndim == 2 and array.dtype.kind in "iuf" and not any(
                v is True or v is False for row in value for v in row):
            return array
    except ValueError:  # rows of different lengths
        pass
    raise ValueError("must be a list of equal-length lists of numbers")


def _number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value < math.inf:
        raise ValueError("must be a finite non-negative number")
    return value


# the JSON text and the catalogs of the last `_catalogs` build
_last_build: tuple[str, dict[str, Catalog]] = ("", {})


def _catalogs(value) -> dict[str, Catalog]:
    """The catalogs of a ``gazetteers`` value.  The two files of a model pair
    hold the same value, so the second reuses the first's frozen catalogs.
    The key is the JSON text, which tells ``true``, ``1`` and ``1.0`` apart."""
    global _last_build
    key = json.dumps(value)
    if key != _last_build[0]:
        _last_build = (key, _build_catalogs(value))
    return dict(_last_build[1])


def _build_catalogs(value) -> dict[str, Catalog]:
    catalogs: dict[str, Catalog] = {}
    try:
        if not isinstance(value, list):
            raise TypeError("not a list")
        for slot_type, entries in value:
            if slot_type in catalogs:
                raise ValueError("duplicate slot type %r" % slot_type)
            catalogs[slot_type] = Catalog(slot_type, tuple(
                CatalogEntry(string_list(tokens), _number(w)) for tokens, w in entries))
    except (TypeError, ValueError) as exc:
        raise ValueError("must be a list of [slot type, [[tokens, weight], ...]] pairs (%s)"
                         % exc) from exc
    return catalogs


_ENVELOPE: dict[str, Callable] = {"l2": _number, "features": string_list, "gazetteers": _catalogs}


def save_model(model, path, fmt: str, keys: Iterable[str]) -> None:
    """Write `model` as a `fmt` file: the envelope plus the model fields `keys`."""
    index, gazetteers = model.feature_index, model.gazetteers
    obj = dict(
        {key: getattr(model, key) for key in keys},
        format=fmt, version=1, l2=model.l2, features=sorted(index, key=index.__getitem__),
        gazetteers=[[t, [[e.tokens, e.weight] for e in gazetteers[t].entries]]
                    for t in sorted(gazetteers)],
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist)
        fh.write("\n")


def load_model(cls, path, fmt: str, keys: Mapping[str, Callable]):
    """The `cls` model in the `fmt` file at `path`; `keys` maps each of the
    model's own keys to the function that checks and converts its value."""
    obj = read_json(path)
    if not (isinstance(obj, dict) and obj.get("format") == fmt
            and type(obj.get("version")) is int and obj["version"] == 1):
        raise FormatError("not a version-1 %s file" % fmt, path=path)
    checks = {**_ENVELOPE, **keys}
    unknown = sorted(obj.keys() - checks.keys() - {"format", "version"})
    if unknown:
        raise FormatError("unknown key %r" % unknown[0], path=path)
    values = {}
    for key, check in checks.items():
        if key not in obj:
            raise FormatError("missing key %r" % key, path=path)
        try:
            values[key] = check(obj[key])
        except ValueError as exc:
            raise FormatError("%s %s" % (key, exc), path=path) from exc
    features = values.pop("features")
    return checked(path, None, cls, feature_index={f: i for i, f in enumerate(features)}, **values)
