r"""Annotated-corpus data model and file formats.

An annotated corpus is a UTF-8, line-delimited file.  Each line is

    <id> TAB <domain> TAB <intent> TAB <annotated text>

where the annotated text is whitespace-tokenized and slot values are wrapped
in ``[value tokens](SlotType)`` brackets::

    u1	Music	PlayMusic	play [we are the champions](SongName) by [queen](ArtistName)

Lines starting with ``#`` and blank lines are ignored.  Catalogs (weighted
value lists per slot type) and grammar templates come in their own line
formats; see `load_catalog` and `load_grammar`.  Every line format of the
package is read by `read_records`, every JSON file by `read_json` and `parse`;
every text file is written by `write_lines`.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import math
import os
import random
import re
import sys
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import (Callable, Iterable, Mapping, NewType, Sequence, get_args, get_origin,
                    get_type_hints)

from .errors import ConfigError, FormatError

# Tokens may not hold whitespace or a bracket, which keeps
# parse(serialize(u)) == u total over valid utterances.
_BAD_TOKEN_CHAR = re.compile(r"[\s\[\]]")


def _check_token(token: str) -> None:
    if not isinstance(token, str) or not token:
        raise ValueError("tokens must be non-empty strings")
    if _BAD_TOKEN_CHAR.search(token):
        if any(c.isspace() for c in token):
            raise ValueError("token %r contains whitespace" % token)
        raise ValueError("token %r contains a bracket character" % token)


def split_tokens(text: str) -> tuple[str, ...]:
    """The whitespace-separated tokens of `text`, interned: a word read from
    any input is held once for the whole run."""
    return tuple(map(sys.intern, text.split()))


def check_name(name: str, what: str) -> None:
    if not name or any(c.isspace() for c in name) or any(c in "[]()" for c in name):
        raise ValueError("invalid %s: %r" % (what, name))


def check_field(value: str, what: str) -> None:
    """ValueError unless `value` can be a field of a corpus line: non-empty,
    without leading or trailing whitespace, and without a tab, CR or LF."""
    if not value or value != value.strip() or "\t" in value or "\r" in value or "\n" in value:
        raise ValueError("invalid %s: %r" % (what, value))


@dataclass(frozen=True, slots=True)
class SlotSpan:
    """A labeled token span; `start` inclusive, `end` exclusive."""

    slot_type: str
    start: int
    end: int
    value: str

    def __post_init__(self):
        check_name(self.slot_type, "slot type")
        if not (0 <= self.start < self.end):
            raise ValueError(
                "bad span [%d, %d) for %s" % (self.start, self.end, self.slot_type)
            )


def make_span(tokens: Sequence[str], slot_type: str, start: int, end: int) -> SlotSpan:
    """Build a SlotSpan whose value is derived from the token range."""
    return SlotSpan(slot_type, start, end, " ".join(tokens[start:end]))


@dataclass(frozen=True, slots=True)
class Utterance:
    """One annotated utterance: the four fields of a corpus line, with the
    annotated text as tokens and slots.

    Invariants enforced here: id, domain and intent pass `check_field`, and
    the id does not start with ``#``;
    tokens are non-empty, whitespace- and bracket-free; slots are sorted by
    start, non-overlapping, inside the token range, and each slot's value
    equals the joined tokens it covers.
    """

    id: str
    domain: str
    intent: str
    tokens: tuple[str, ...]
    slots: tuple[SlotSpan, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "slots", tuple(self.slots))
        check_field(self.id, "utterance id")
        # a corpus line that starts with "#" is a comment, and a byte-order
        # mark that starts a file is dropped when it is read
        if self.id[0] in "#\ufeff":
            raise ValueError("invalid utterance id: %r" % self.id)
        check_field(self.domain, "domain")
        check_field(self.intent, "intent")
        if not self.tokens:
            raise ValueError("utterance %s has no tokens" % self.id)
        for t in self.tokens:
            _check_token(t)
        prev_end = 0
        for s in self.slots:
            if s.start < prev_end:
                raise ValueError(
                    "slots overlap or are unsorted at %s in %s" % (s, self.id)
                )
            if s.end > len(self.tokens):
                raise ValueError("slot %s out of range in %s" % (s, self.id))
            expected = " ".join(self.tokens[s.start : s.end])
            if s.value != expected:
                raise ValueError(
                    "slot value %r != covered tokens %r in %s"
                    % (s.value, expected, self.id)
                )
            prev_end = s.end


def parse_annotated_line(line: str, line_no: int | None = None, path=None) -> Utterance:
    """Parse one corpus line into an Utterance."""
    return read_records(path, _utterance, (4,), lines=[(line_no, line)])[0]


Segment = tuple[Sequence[str], str | None]  # (tokens, slot type or None for plain text)
# a slot, a plain token, or a character that starts neither; finditer skips whitespace
_MARKUP = re.compile(r"\[([^\[\]]*)\]\(([^)]*)\)|([^\s\[\]]+)|(\S)")


def _utterance(*fields: str) -> Utterance:
    uid, domain, intent, markup = (f.strip() for f in fields)
    parts: list[Segment] = []
    for m in _MARKUP.finditer(markup):
        value, slot_type, token, bad = m.groups()
        if bad is not None:
            raise ValueError("%r at character %d is not [value](SlotType) markup"
                             % (bad, m.start() + 1))
        if token is not None:
            parts.append(((sys.intern(token),), None))
        elif value.strip():
            parts.append((split_tokens(value), slot_type))
        else:  # a clearer message than the span's own "bad span [1, 1)"
            raise ValueError("empty slot span")
    return Utterance(uid, domain, intent, *assemble(parts))


def assemble(parts: Iterable[Segment]) -> tuple[tuple[str, ...], tuple[SlotSpan, ...]]:
    """The tokens and slot spans of an annotated text given as its segments."""
    tokens: list[str] = []
    slots: list[SlotSpan] = []
    for part, slot_type in parts:
        start = len(tokens)
        tokens.extend(part)
        if slot_type is not None:
            slots.append(make_span(tokens, slot_type, start, len(tokens)))
    return tuple(tokens), tuple(slots)


def segments(utterance: Utterance) -> list[Segment]:
    """Inverse of `assemble`: the non-empty runs of plain tokens and the slots
    of `utterance`, in order."""
    tokens, out, cursor = utterance.tokens, [], 0
    for s in utterance.slots:
        if cursor < s.start:
            out.append((tokens[cursor : s.start], None))
        out.append((tokens[s.start : s.end], s.slot_type))
        cursor = s.end
    if cursor < len(tokens):
        out.append((tokens[cursor:], None))
    return out


def serialize_utterance(utterance: Utterance) -> str:
    """Inverse of `parse_annotated_line`."""
    text = " ".join([" ".join(part) if slot_type is None
                     else "[%s](%s)" % (" ".join(part), slot_type)
                     for part, slot_type in segments(utterance)])
    return "\t".join([utterance.id, utterance.domain, utterance.intent, text])


def text_lines(path) -> list[tuple[int, str]]:
    """(line number, line) of every line of the UTF-8 text file at `path`,
    split as `open` splits it; a leading byte-order mark is dropped.  A byte
    that is not UTF-8 is a FormatError on its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        before = exc.object[: exc.start]  # after the byte-order mark, if any
        line_no = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        raise FormatError("byte 0x%02x is not UTF-8 (%s)" % (exc.object[exc.start], exc.reason),
                          line_no, path) from exc
    return list(enumerate(io.StringIO(text, newline=None), 1))


def data_lines(path, header: bool = False) -> list[tuple[int, str]]:
    """The `text_lines` of `path` that are neither blank nor a ``#`` comment
    (with `header`, line 1 is always kept)."""
    return [
        (line_no, line)
        for line_no, line in text_lines(path)
        if (header and line_no == 1) or (line.strip() and not line.lstrip().startswith("#"))
    ]


def checked(path, line_no: int | None, build: Callable, *args, **kwargs):
    """`build(*args, **kwargs)`, with a ValueError raised as a FormatError at
    `path`:`line_no`."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise FormatError(str(exc), line_no, path) from exc


def read_records(path, parse: Callable, widths: tuple[int, ...], sep: str = "\t",
                 lines: list[tuple[int, str]] | None = None) -> list:
    """`parse(*fields)` for each of the `data_lines` of `path` (or of `lines`),
    split at `sep` into a number of fields that `widths` allows.  A wrong
    field count, or a ValueError from `parse`, is a FormatError on its line."""
    records = []
    if lines is None:
        lines = data_lines(path)
    try:
        for line_no, line in lines:
            fields = line.rstrip("\n").split(sep)
            if len(fields) not in widths:
                raise ValueError("expected %s %s-separated fields, got %d" % (
                    " or ".join(map(str, widths)), "tab" if sep == "\t" else repr(sep),
                    len(fields)))
            records.append(parse(*fields))
    except ValueError as exc:
        raise FormatError(str(exc), line_no, path) from exc
    return records


def number(text: str, what: str, kind: Callable = float):
    """`kind(text)`; text that is not ASCII, holds `_` or `kind` cannot read,
    or a float that is not finite, is a ValueError ``bad <what> '<text>'``."""
    try:
        if not text.isascii() or "_" in text:
            raise ValueError
        value = kind(text)
    except ValueError:
        raise ValueError("bad %s %r" % (what, text)) from None
    if kind is float and not math.isfinite(value):
        raise ValueError("bad %s %r: not a finite number" % (what, text))
    return value


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError("repeated key %r" % key)
        obj[key] = value
    return obj


def read_json(path, invalid: str = "not a JSON file"):
    """The JSON value in the UTF-8 file at `path`, after a leading byte-order
    mark if there is one.  Text that is not UTF-8 or not JSON, an object
    that repeats a key, or values nested too deep to decode, is a FormatError
    that names the file and starts with `invalid`."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise FormatError("%s: %s" % (invalid, exc), path=path) from exc


def write_lines(path, lines: Iterable[str]) -> None:
    """Write each of `lines` and a newline after it, as UTF-8 with ``\n`` line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def load_corpus(path) -> list[Utterance]:
    """Read an annotated corpus file; ids must be unique within the file."""
    seen: set[str] = set()

    def utterance(*fields: str) -> Utterance:
        u = _utterance(*fields)
        if u.id in seen:
            raise ValueError("duplicate utterance id %r" % u.id)
        seen.add(u.id)
        return u

    return read_records(path, utterance, (4,))


def save_corpus(utterances: Iterable[Utterance], path) -> None:
    write_lines(path, map(serialize_utterance, utterances))


@dataclass(frozen=True, slots=True)
class CatalogEntry:
    tokens: tuple[str, ...]
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise ValueError("catalog entry must have at least one token")
        for t in self.tokens:
            _check_token(t)
        object.__setattr__(self, "tokens", tuple(map(sys.intern, self.tokens)))
        if not 0 <= self.weight <= sys.float_info.max:
            raise ValueError("catalog weight must be a finite non-negative number")


@dataclass(frozen=True)
class Catalog:
    """Weighted value list for one slot type.

    Entry tokens are lowercased on construction: corpora are spoken-form
    (lowercase) text, while catalogs typically come from cased asset lists.
    """

    slot_type: str
    entries: tuple[CatalogEntry, ...]

    def __post_init__(self):
        check_name(self.slot_type, "slot type")
        object.__setattr__(self, "entries", tuple(_lowercased(e) for e in self.entries))
        if not self.entries:
            raise ValueError("catalog %s has no entries" % self.slot_type)
        if not any(e.weight > 0 for e in self.entries):
            raise ValueError("catalog %s has no entry with positive weight" % self.slot_type)
        if not math.isfinite(sum(e.weight for e in self.entries)):
            raise ValueError("catalog %s has a total weight that is not finite" % self.slot_type)

    @functools.cached_property
    def entries_by_length(self) -> dict[int, frozenset[tuple[str, ...]]]:
        """Entry token tuples grouped by their length, built on first use."""
        groups: dict[int, set[tuple[str, ...]]] = {}
        for e in self.entries:
            groups.setdefault(len(e.tokens), set()).add(e.tokens)
        return {m: frozenset(g) for m, g in groups.items()}

    @functools.cached_property
    def cum_weights(self) -> list[float]:
        """Running sums of the entry weights, built on first use."""
        return list(itertools.accumulate(e.weight for e in self.entries))

    def draw(self, rng: random.Random) -> CatalogEntry:
        """One entry, drawn with probability proportional to its weight by a
        bisection of `cum_weights`; the same draw as
        ``rng.choices(entries, weights=[e.weight for e in entries])[0]``."""
        return rng.choices(self.entries, cum_weights=self.cum_weights)[0]


def _lowercased(entry: CatalogEntry) -> CatalogEntry:
    tokens = tuple(t.lower() for t in entry.tokens)
    return entry if tokens == entry.tokens else CatalogEntry(tokens, entry.weight)


def load_catalog(path) -> Catalog:
    """Read a catalog file.

    The first line must be ``#slot_type=<name>``; every following non-comment
    line is ``<value>`` or ``<value> TAB <weight>`` (weight defaults to 1.0).
    """
    lines = data_lines(path, header=True)
    if not lines or not lines[0][1].startswith("#slot_type="):
        raise FormatError("catalog must start with #slot_type=<name>", 1, path)
    slot_type = lines[0][1][len("#slot_type=") :].strip()
    entries = read_records(path, _catalog_entry, (1, 2), lines=lines[1:])
    return checked(path, None, Catalog, slot_type, tuple(entries))


def _catalog_entry(value: str, weight: str | None = None) -> CatalogEntry:
    return CatalogEntry(tuple(value.split()), 1.0 if weight is None else number(weight, "weight"))


def load_catalogs(paths) -> dict[str, Catalog]:
    """Load several catalog files into a map keyed by slot type."""
    catalogs: dict[str, Catalog] = {}
    for p in paths:
        c = load_catalog(p)
        if c.slot_type in catalogs:
            raise FormatError("duplicate catalog for slot type %r" % c.slot_type, None, p)
        catalogs[c.slot_type] = c
    return catalogs


# --- JSON values checked against type annotations ---------------------------

InputPath = NewType("InputPath", str)
"""A config value naming an input file: resolved against the config file's
directory, and it must exist."""
NonNegative = NewType("NonNegative", float)
Matrix = NewType("Matrix", list)

# (singular, plural) of each leaf type, for error messages
_KINDS = {
    bool: ("true or false", "booleans"),
    int: ("an integer", "integers"),
    float: ("a number", "numbers"),
    str: ("a string", "strings"),
    InputPath: ("a non-empty path string", "paths"),
    NonNegative: ("a finite non-negative number", "finite non-negative numbers"),
    Matrix: ("a list of equal-length lists of numbers", "matrices"),
    Catalog: ("a catalog", "[slot type, [[[token, ...], weight], ...]] pairs"),
}


def _is_kind(kind, value) -> bool:
    if kind is bool:
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if kind is float:  # finite; an int beyond the float range is not finite either
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if kind is NonNegative:
        return _is_kind(float, value) and value >= 0
    if kind is InputPath:
        return isinstance(value, str) and value != ""
    if kind is Matrix:  # the float rule by `map` over all entries: a model holds many
        if not (isinstance(value, list) and all(
                isinstance(row, list) and len(row) == len(value[0]) for row in value)):
            return False
        numbers = list(itertools.chain.from_iterable(value))
        return {int, float}.issuperset(map(type, numbers)) \
            and all(map(sys.float_info.max.__ge__, map(abs, numbers)))
    if kind is Catalog:  # [slot type, [[[token, ...], weight], ...]]; CatalogEntry checks more
        return isinstance(value, list) and len(value) == 2 and isinstance(value[0], str) \
            and isinstance(value[1], list) and all(
                type(e) is list and len(e) == 2 and type(e[0]) is list
                and type(e[1]) in (int, float) for e in value[1])
    return isinstance(value, kind)


def _leaf(kind, value, key: str, base: Path | None):
    if kind is float:
        return float(value)
    if kind is InputPath:
        path = base / value
        if not os.path.exists(path):  # False, not OSError, for a name too long
            raise ValueError("%s: no such file: %s" % (key, path))
        return str(path)
    if kind is Catalog:
        entries = []
        for i, (tokens, weight) in enumerate(value[1]):
            try:
                entries.append(CatalogEntry(tuple(tokens), weight))
            except ValueError as exc:
                raise ValueError("%s: catalog %r entry %d: %s" % (key, value[0], i, exc)) from exc
        return Catalog(value[0], tuple(entries))
    return value


def _shown(value) -> str:
    """`value` as JSON, cut to about 60 characters."""
    try:
        text = json.dumps(value)
    except RecursionError:  # nested nearly as deep as `read_json` can decode
        text = "a value nested too deep to show"
    return text if len(text) <= 60 else text[:56] + " ..."


def parse(hint, value, key: str, base: Path | None = None, items: str | None = None):
    """`value` checked against the annotation `hint` and converted to it, or
    a ValueError that names `key`.  A dataclass `hint` is an object of its
    fields, which take their defaults when left out; a dict `hint`
    maps each key that the object must hold to its annotation.  InputPath
    values are resolved against `base`; `items` names a fixed list's entries."""
    if is_dataclass(hint) or isinstance(hint, dict):
        if not isinstance(value, dict):
            raise ValueError("%s must be a JSON object, got %s" % (key, _shown(value)))
        if isinstance(hint, dict):
            schema, meta = hint, {}
            missing = [k for k in hint if k not in value]
            if missing:
                raise ValueError("missing key %r in %s" % (missing[0], key))
        else:
            hints = get_type_hints(hint)
            schema = {f.name: hints[f.name] for f in fields(hint)}
            meta = {f.name: f.metadata.get("items") for f in fields(hint)}
        unknown = sorted(value.keys() - schema.keys())
        if unknown:
            raise ValueError("unknown key %r in %s" % (unknown[0], key))
        parsed = {k: parse(h, value[k], k, base, meta.get(k)) for k, h in schema.items()
                  if k in value}
        return parsed if isinstance(hint, dict) else hint(**parsed)
    args = get_args(hint)
    optional = type(None) in args
    if optional:
        if value is None:
            return None
        hint = args[0]  # X | None
        args = get_args(hint)
    container = get_origin(hint)
    if container is None:
        ok = _is_kind(hint, value)
        expected = _KINDS[hint][0]
    else:  # tuple[kind, ...], tuple[kind, kind, ...] or frozenset[kind]
        sized = container is tuple and args[-1] is not Ellipsis
        ok = isinstance(value, (list, tuple)) \
            and (not sized or len(value) == len(args)) \
            and all(_is_kind(args[0], v) for v in value)
        expected = "a list of %s%s%s" % (
            "%d " % len(args) if sized else "", _KINDS[args[0]][1],
            " (%s)" % items if items else "")
    if not ok:
        raise ValueError("%s must be %s%s, got %s"
                         % (key, expected, " or null" if optional else "", _shown(value)))
    if container is None:
        return _leaf(hint, value, key, base)
    return container(_leaf(args[0], v, key, base) for v in value)


def to_json(config) -> dict:
    """The fields of a config dataclass as JSON data: sections as
    objects, tuples as lists and sets as sorted lists."""
    out = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            value = to_json(value)
        elif isinstance(value, (tuple, list)):
            value = list(value)
        elif isinstance(value, (set, frozenset)):
            value = sorted(value)
        out[f.name] = value
    return out


def _placeholder(token: str) -> str | None:
    """The slot type that a pattern token ``{SlotType}`` names; None for a token
    that neither starts with ``{`` nor ends with ``}``, a ValueError for any other."""
    if not (token.startswith("{") or token.endswith("}")):
        return None
    if not re.fullmatch(r"\{[^{}]+\}", token):
        raise ValueError("%r is not a {SlotType} placeholder" % token)
    check_name(token[1:-1], "slot type")
    return token[1:-1]


@dataclass(frozen=True)
class GrammarTemplate:
    """A weighted utterance pattern; ``{SlotType}`` tokens are placeholders."""

    intent: str
    domain: str
    pattern: tuple[str, ...]
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "pattern", tuple(self.pattern))
        check_field(self.intent, "intent")
        check_field(self.domain, "domain")
        if not self.pattern:
            raise ValueError("empty grammar pattern")
        if not (self.weight > 0):
            raise ValueError("grammar weight must be positive")
        for tok in self.pattern:
            if _placeholder(tok) is None:
                _check_token(tok)

    @property
    def placeholders(self) -> tuple[str, ...]:
        return tuple(filter(None, map(_placeholder, self.pattern)))


def load_grammar(path) -> list[GrammarTemplate]:
    """Read grammar lines: ``intent TAB domain TAB weight TAB pattern``; the
    weights must have a finite total."""
    templates = read_records(path, _template, (4,))
    if not math.isfinite(sum(t.weight for t in templates)):
        raise FormatError("the grammar has a total weight that is not finite", None, path)
    return templates


def _template(intent: str, domain: str, weight: str, pattern: str) -> GrammarTemplate:
    return GrammarTemplate(intent.strip(), domain.strip(), split_tokens(pattern),
                           number(weight, "weight"))


def sample_grammar(
    templates: Sequence[GrammarTemplate],
    catalogs: Mapping[str, Catalog],
    n: int,
    seed: int,
    id_prefix: str = "g",
) -> list[Utterance]:
    """Draw `n` annotated utterances from weighted grammar templates.

    Templates are chosen with probability proportional to weight, and every
    placeholder is filled with a catalog entry drawn the same way.  The same
    (templates, catalogs, n, seed) always produce the same corpus.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > 0 and not templates:
        raise ConfigError("no grammar templates to sample from")
    missing = sorted(
        {p for t in templates for p in t.placeholders if p not in catalogs}
    )
    if missing:
        raise ConfigError("no catalog for placeholder(s): %s" % ", ".join(missing))
    rng = random.Random(seed)
    weights = [t.weight for t in templates]
    names = {tok: _placeholder(tok) for t in templates for tok in t.pattern}  # once, not per draw

    def segment(token: str) -> Segment:
        name = names[token]
        return ((token,), None) if name is None else (catalogs[name].draw(rng).tokens, name)

    out: list[Utterance] = []
    for i in range(n):
        template = rng.choices(templates, weights)[0]
        tokens, slots = assemble(map(segment, template.pattern))
        out.append(Utterance("%s%06d" % (id_prefix, i), template.domain, template.intent,
                             tokens, slots))
    return out
