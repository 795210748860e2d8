r"""Annotated-corpus data model and file formats.

An annotated corpus is a UTF-8, line-delimited file.  Each line is

    <id> TAB <domain> TAB <intent> TAB <annotated text>

where the annotated text is whitespace-tokenized and slot values are wrapped
in ``[value tokens](SlotType)`` brackets::

    u1	Music	PlayMusic	play [we are the champions](SongName) by [queen](ArtistName)

Lines starting with ``#`` and blank lines are ignored.  Catalogs (weighted
value lists per slot type) and grammar templates come in their own line
formats; see `load_catalog` and `load_grammar`.  Every line format of the
package is read by `read_records` and every JSON file by `read_json`; every
text file but the model files is written by `write_lines`.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ConfigError, FormatError

# Characters with markup meaning; tokens may not contain them (nor whitespace),
# which keeps parse(serialize(u)) == u total over valid utterances.
_BRACKETS = "[]"
_BAD_TOKEN_CHAR = re.compile(r"[\s\[\]]")


def _check_token(token: str) -> None:
    if not token:
        raise ValueError("tokens must be non-empty")
    if _BAD_TOKEN_CHAR.search(token):
        if any(c.isspace() for c in token):
            raise ValueError("token %r contains whitespace" % token)
        raise ValueError("token %r contains a bracket character" % token)


def _check_name(name: str, what: str) -> None:
    if not name or any(c.isspace() for c in name) or any(c in "[]()" for c in name):
        raise ValueError("invalid %s: %r" % (what, name))


@dataclass(frozen=True)
class SlotSpan:
    """A labeled token span; `start` inclusive, `end` exclusive."""

    slot_type: str
    start: int
    end: int
    value: str

    def __post_init__(self):
        _check_name(self.slot_type, "slot type")
        if not (0 <= self.start < self.end):
            raise ValueError(
                "bad span [%d, %d) for %s" % (self.start, self.end, self.slot_type)
            )


def make_span(tokens: Sequence[str], slot_type: str, start: int, end: int) -> SlotSpan:
    """Build a SlotSpan whose value is derived from the token range."""
    return SlotSpan(slot_type, start, end, " ".join(tokens[start:end]))


@dataclass(frozen=True)
class Utterance:
    """One annotated utterance.

    Invariants enforced here: tokens are non-empty, whitespace- and
    bracket-free; slots are sorted by start, non-overlapping, inside the
    token range, and each slot's value equals the joined tokens it covers.
    """

    id: str
    language: str
    domain: str
    intent: str
    tokens: tuple[str, ...]
    slots: tuple[SlotSpan, ...] = ()
    source_id: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "slots", tuple(self.slots))
        if not self.id:
            raise ValueError("utterance id must be non-empty")
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


def parse_annotated_line(
    line: str, language: str = "", line_no: int | None = None, path=None
) -> Utterance:
    """Parse one corpus line into an Utterance.

    The line format carries no language; callers pass it in.
    """
    return read_records(path, functools.partial(_utterance, language), (4,),
                        lines=[(line_no, line)])[0]


def _utterance(language: str, *fields: str) -> Utterance:
    uid, domain, intent, markup = (f.strip() for f in fields)
    if not uid or not domain or not intent:
        raise ValueError("empty id, domain, or intent field")
    tokens, slots = _parse_markup(markup)
    return Utterance(uid, language, domain, intent, tokens, slots)


def _parse_markup(markup: str) -> tuple[tuple[str, ...], tuple[SlotSpan, ...]]:
    tokens: list[str] = []
    slots: list[SlotSpan] = []
    i, n = 0, len(markup)
    while i < n:
        ch = markup[i]
        if ch.isspace():
            i += 1
        elif ch == "[":
            close = markup.find("]", i + 1)
            if close == -1:
                raise ValueError("unclosed slot bracket")
            nested = markup.find("[", i + 1)
            if nested != -1 and nested < close:
                raise ValueError("nested slot bracket")
            value_tokens = markup[i + 1 : close].split()
            if not value_tokens:
                raise ValueError("empty slot span")
            if close + 1 >= n or markup[close + 1] != "(":
                raise ValueError("slot span missing (SlotType)")
            close_paren = markup.find(")", close + 2)
            if close_paren == -1:
                raise ValueError("unterminated slot type")
            slot_type = markup[close + 2 : close_paren]
            _check_name(slot_type, "slot type")
            start = len(tokens)
            tokens.extend(value_tokens)
            slots.append(make_span(tokens, slot_type, start, len(tokens)))
            i = close_paren + 1
        elif ch == "]":
            raise ValueError("stray closing bracket")
        else:
            j = i
            while j < n and not markup[j].isspace() and markup[j] not in _BRACKETS:
                j += 1
            tokens.append(markup[i:j])
            i = j
    if not tokens:
        raise ValueError("empty utterance text")
    return tuple(tokens), tuple(slots)


def serialize_utterance(utterance: Utterance) -> str:
    """Inverse of `parse_annotated_line` (the language is not written)."""
    by_start = {s.start: s for s in utterance.slots}
    parts: list[str] = []
    i = 0
    while i < len(utterance.tokens):
        span = by_start.get(i)
        if span is not None:
            parts.append(
                "[%s](%s)"
                % (" ".join(utterance.tokens[span.start : span.end]), span.slot_type)
            )
            i = span.end
        else:
            parts.append(utterance.tokens[i])
            i += 1
    return "\t".join(
        [utterance.id, utterance.domain, utterance.intent, " ".join(parts)]
    )


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
    """`kind(text)`; text it cannot read, or a float that is not finite, is a
    ValueError ``bad <what> '<text>'``."""
    try:
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
    mark if there is one.  Text that is not UTF-8 or not JSON, or an object
    that repeats a key, is a FormatError that names the file and starts with
    `invalid`."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except ValueError as exc:
        raise FormatError("%s: %s" % (invalid, exc), path=path) from exc


def write_lines(path, lines: Iterable[str]) -> None:
    """Write each of `lines` and a newline after it, as UTF-8 with ``\n`` line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def load_corpus(path, language: str = "") -> list[Utterance]:
    """Read an annotated corpus file; ids must be unique within the file."""
    seen: set[str] = set()

    def utterance(*fields: str) -> Utterance:
        u = _utterance(language, *fields)
        if u.id in seen:
            raise ValueError("duplicate utterance id %r" % u.id)
        seen.add(u.id)
        return u

    return read_records(path, utterance, (4,))


def save_corpus(utterances: Iterable[Utterance], path) -> None:
    write_lines(path, map(serialize_utterance, utterances))


@dataclass(frozen=True)
class CatalogEntry:
    tokens: tuple[str, ...]
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise ValueError("catalog entry must have at least one token")
        for t in self.tokens:
            _check_token(t)
        if not (math.isfinite(self.weight) and self.weight >= 0.0):
            raise ValueError("catalog weight must be a finite non-negative number")

    @property
    def value(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class Catalog:
    """Weighted value list for one slot type.

    Entry tokens are lowercased on construction: corpora are spoken-form
    (lowercase) text, while catalogs typically come from cased asset lists.
    """

    slot_type: str
    entries: tuple[CatalogEntry, ...]

    def __post_init__(self):
        _check_name(self.slot_type, "slot type")
        object.__setattr__(self, "entries", tuple(_lowercased(e) for e in self.entries))
        if not self.entries:
            raise ValueError("catalog %s has no entries" % self.slot_type)
        if not any(e.weight > 0 for e in self.entries):
            raise ValueError("catalog %s has no entry with positive weight" % self.slot_type)

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


def _is_placeholder(token: str) -> bool:
    return len(token) > 2 and token.startswith("{") and token.endswith("}")


@dataclass(frozen=True)
class GrammarTemplate:
    """A weighted utterance pattern; ``{SlotType}`` tokens are placeholders."""

    intent: str
    domain: str
    pattern: tuple[str, ...]
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "pattern", tuple(self.pattern))
        _check_name(self.intent, "intent")
        _check_name(self.domain, "domain")
        if not self.pattern:
            raise ValueError("empty grammar pattern")
        if not (self.weight > 0):
            raise ValueError("grammar weight must be positive")
        for tok in self.pattern:
            if not _is_placeholder(tok):
                _check_token(tok)

    @property
    def placeholders(self) -> tuple[str, ...]:
        return tuple(t[1:-1] for t in self.pattern if _is_placeholder(t))


def load_grammar(path) -> list[GrammarTemplate]:
    """Read grammar lines: ``intent TAB domain TAB weight TAB pattern``."""
    return read_records(path, _template, (4,))


def _template(intent: str, domain: str, weight: str, pattern: str) -> GrammarTemplate:
    return GrammarTemplate(intent.strip(), domain.strip(), tuple(pattern.split()),
                           number(weight, "weight"))


def sample_grammar(
    templates: Sequence[GrammarTemplate],
    catalogs: Mapping[str, Catalog],
    n: int,
    seed: int,
    language: str = "",
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
    out: list[Utterance] = []
    for i in range(n):
        template = rng.choices(templates, weights)[0]
        tokens: list[str] = []
        slots: list[SlotSpan] = []
        for tok in template.pattern:
            if _is_placeholder(tok):
                catalog = catalogs[tok[1:-1]]
                start = len(tokens)
                tokens.extend(catalog.draw(rng).tokens)
                slots.append(make_span(tokens, catalog.slot_type, start, len(tokens)))
            else:
                tokens.append(tok)
        out.append(
            Utterance(
                "%s%06d" % (id_prefix, i),
                language,
                template.domain,
                template.intent,
                tuple(tokens),
                tuple(slots),
            )
        )
    return out
