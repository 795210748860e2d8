"""What the slot tagger and the intent classifier share: feature ids, the
sparse design matrix, `logsumexp` and the model file.

A design matrix of fewer than 37,000 ids is a `CountMatrix`, whose products
take numpy alone; a larger one is scipy's CSR matrix, which multiplies
faster at that size, and so is every design built after it in the same
process, since the import of scipy is paid by then.  Both give the same
products to the last bit, so a model does not depend on which one it was
trained with, and only training on a large corpus imports scipy.

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
import sys
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


# the number of ids from which a design is scipy's CSR matrix: about where,
# in a measured run, its faster products outweigh the cost of importing scipy
_CSR_MIN_ENTRIES = 37_000


class CountMatrix:
    """A sparse matrix of counts, multiplied with dense matrices in numpy.

    Entry e adds `count[e]` times row `cols[e]` of the operand to row
    `rows[e]` of the product.  The entries run by row, then by column, of
    the matrix as built (`T` keeps that order), and `np.bincount` sums each
    column of a product from 0 in that order: the arithmetic of scipy's CSR
    and CSC products, so the results agree with theirs to the last bit.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, count: np.ndarray,
                 shape: tuple[int, int]):
        self.rows, self.cols, self.count, self.shape = rows, cols, count, shape

    @classmethod
    def of_entries(cls, row_ids: np.ndarray, cols: np.ndarray,
                   shape: tuple[int, int]) -> "CountMatrix":
        """The matrix with a 1 at each (`row_ids[e]`, `cols[e]`); repeated
        entries add up."""
        (rows, cols), count = np.unique(np.stack([row_ids, cols]), axis=1, return_counts=True)
        return cls(rows, cols, count.astype(float), shape)

    @property
    def T(self) -> "CountMatrix":
        return CountMatrix(self.cols, self.rows, self.count, self.shape[::-1])

    def __matmul__(self, other: np.ndarray) -> np.ndarray:
        product = np.empty((self.shape[0], other.shape[1]))
        for k, column in enumerate(np.ascontiguousarray(other.T)):
            product[:, k] = np.bincount(self.rows, column[self.cols] * self.count, self.shape[0])
        return product


def design_matrix(rows: Sequence[Sequence[int]], n_columns: int):
    """Matrix with one row per id list and a 1 at each id; repeated ids add
    up.  A `CountMatrix` below `_CSR_MIN_ENTRIES` ids while scipy is not
    loaded, else scipy's CSR matrix."""
    cols = np.concatenate(rows) if len(rows) else np.zeros(0, dtype=np.int64)
    row_ids = np.repeat(np.arange(len(rows)), [len(ids) for ids in rows])
    shape = (len(rows), n_columns)
    if len(cols) < _CSR_MIN_ENTRIES and "scipy.sparse" not in sys.modules:
        return CountMatrix.of_entries(row_ids, cols, shape)
    from scipy import sparse  # training on a large corpus only

    return sparse.csr_matrix((np.ones(len(cols)), (row_ids, cols)), shape=shape)


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
