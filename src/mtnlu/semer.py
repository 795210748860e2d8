"""Semantic error rate: intent and slot errors over reference size.

An utterance contributes ``#reference slots + 1`` to the denominator (the +1
is the intent).  Slot errors come from a greedy per-type alignment: the k-th
hypothesis slot of a type is paired with the k-th reference slot of that
type; paired slots with different values are substitutions, unpaired
reference slots deletions, unpaired hypothesis slots insertions.  Value
comparison is case-insensitive on the joined tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

from .corpus import (SlotSpan, Utterance, checked, data_lines, number, read_records,
                     write_lines)
from .errors import FormatError
from .nlu import NluHypothesis


class SlotAlignment(NamedTuple):
    matches: int
    substitutions: int
    deletions: int
    insertions: int


def align_slots(
    ref_slots: Sequence[SlotSpan], hyp_slots: Sequence[SlotSpan]
) -> SlotAlignment:
    """Greedy in-order pairing of same-type slots."""
    by_type: dict[str, tuple[list[str], list[str]]] = {}
    for side, slots in enumerate((ref_slots, hyp_slots)):
        for span in slots:
            pair = by_type.setdefault(span.slot_type, ([], []))
            pair[side].append(span.value.lower())
    matches = substitutions = deletions = insertions = 0
    for ref_values, hyp_values in by_type.values():
        paired = min(len(ref_values), len(hyp_values))
        for r, h in zip(ref_values, hyp_values):
            if r == h:
                matches += 1
            else:
                substitutions += 1
        deletions += len(ref_values) - paired
        insertions += len(hyp_values) - paired
    return SlotAlignment(matches, substitutions, deletions, insertions)


@dataclass(frozen=True)
class SemerCounts:
    reference_count: int = 0
    intent_errors: int = 0
    substitutions: int = 0
    deletions: int = 0
    insertions: int = 0

    def __post_init__(self) -> None:
        for name in ("reference_count", "intent_errors", "substitutions",
                     "deletions", "insertions"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be >= 0" % name)

    @property
    def errors(self) -> int:
        return (self.intent_errors + self.substitutions + self.deletions
                + self.insertions)

    @property
    def semer(self) -> float:
        if self.reference_count == 0:
            return 0.0
        return self.errors / self.reference_count

    def __add__(self, other: "SemerCounts") -> "SemerCounts":
        return SemerCounts(
            self.reference_count + other.reference_count,
            self.intent_errors + other.intent_errors,
            self.substitutions + other.substitutions,
            self.deletions + other.deletions,
            self.insertions + other.insertions,
        )


@dataclass(frozen=True)
class SemerReport:
    overall: SemerCounts
    per_domain: dict[str, SemerCounts] = field(default_factory=dict)

    def __post_init__(self) -> None:
        total = sum(self.per_domain.values(), SemerCounts())
        if self.per_domain and total != self.overall:
            raise ValueError("overall counts must equal the per-domain sum")


def utterance_counts(reference: Utterance, hypothesis: NluHypothesis) -> SemerCounts:
    alignment = align_slots(reference.slots, hypothesis.slots)
    return SemerCounts(
        reference_count=len(reference.slots) + 1,
        intent_errors=int(hypothesis.intent != reference.intent),
        substitutions=alignment.substitutions,
        deletions=alignment.deletions,
        insertions=alignment.insertions,
    )


def semer(
    references: Iterable[Utterance], hypotheses: Mapping[str, NluHypothesis]
) -> SemerReport:
    """Score hypotheses (keyed by utterance id) against a reference corpus."""
    references = list(references)
    missing = sorted(u.id for u in references if u.id not in hypotheses)
    if missing:
        raise ValueError("missing hypotheses for: %s" % ", ".join(missing))
    per_domain: dict[str, SemerCounts] = {}
    for u in references:
        counts = utterance_counts(u, hypotheses[u.id])
        per_domain[u.domain] = per_domain.get(u.domain, SemerCounts()) + counts
    overall = sum(per_domain.values(), SemerCounts())
    return SemerReport(overall, dict(sorted(per_domain.items())))


_REPORT_HEADER = (
    "segment\tname\treference_count\tintent_errors\tsubstitutions\tdeletions"
    "\tinsertions\terrors\tsemer"
)


def _report_row(segment: str, name: str, c: SemerCounts) -> str:
    return "\t".join(
        [segment, name, str(c.reference_count), str(c.intent_errors),
         str(c.substitutions), str(c.deletions), str(c.insertions),
         str(c.errors), "%.4f" % c.semer]
    )


def write_semer_report(report: SemerReport, path: str) -> None:
    lines = [_REPORT_HEADER, _report_row("overall", "-", report.overall)]
    for domain in sorted(report.per_domain):
        lines.append(_report_row("domain", domain, report.per_domain[domain]))
    write_lines(path, lines)


def read_semer_report(path: str) -> SemerReport:
    """Parse a report file; integer counts are authoritative, the printed
    4-decimal ratio is presentational only."""
    lines = [(n, line) for n, line in data_lines(path) if line.rstrip("\n") != _REPORT_HEADER]
    rows: dict[str | None, SemerCounts] = {}  # by domain name; None keys the overall row

    def row(segment: str, name: str, *fields: str) -> None:
        ref, ie, sub, dele, ins, errors = (number(x, "count", int) for x in fields[:6])
        counts = SemerCounts(ref, ie, sub, dele, ins)
        if counts.errors != errors:
            raise ValueError("error total does not match its parts")
        if segment not in ("overall", "domain"):
            raise ValueError("unknown segment %r" % segment)
        key = None if segment == "overall" else name
        if key in rows:
            raise ValueError("repeated %s row" % ("overall" if key is None else "domain %r" % name))
        rows[key] = counts

    read_records(path, row, (9,), lines=lines)
    overall = rows.pop(None, None)
    if overall is None:
        raise FormatError("no overall row", path=path)
    return checked(path, None, SemerReport, overall, rows)


class ComparisonRow(NamedTuple):
    segment: str
    name: str
    baseline: float
    condition: float
    relative: float | None  # percent; None when the baseline is zero


def compare_runs(baseline: SemerReport, condition: SemerReport) -> list[ComparisonRow]:
    """Relative change of condition vs baseline, overall and per domain.

    Both reports must describe the same test set (same reference sizes and
    domains).  Relative change is (condition - baseline) / baseline * 100;
    a zero baseline yields None (or 0.0 when both sides are zero).
    """
    if baseline.overall.reference_count != condition.overall.reference_count:
        raise ValueError("reports describe different test sets (reference size)")
    if set(baseline.per_domain) != set(condition.per_domain):
        raise ValueError("reports describe different test sets (domains)")
    for name, counts in baseline.per_domain.items():
        if counts.reference_count != condition.per_domain[name].reference_count:
            raise ValueError(
                "reports describe different test sets (domain %r size)" % name
            )

    def rel(base: float, cond: float) -> float | None:
        if base == 0.0:
            return 0.0 if cond == 0.0 else None
        return (cond - base) / base * 100.0

    rows = [ComparisonRow("overall", "-", baseline.overall.semer,
                          condition.overall.semer,
                          rel(baseline.overall.semer, condition.overall.semer))]
    for name in sorted(baseline.per_domain):
        b = baseline.per_domain[name].semer
        c = condition.per_domain[name].semer
        rows.append(ComparisonRow("domain", name, b, c, rel(b, c)))
    return rows


def format_comparison(rows: Sequence[ComparisonRow]) -> str:
    """Render rows as 'condition% (relative%)' next to the baseline value."""
    lines = ["segment\tname\tbaseline\tcondition"]
    for row in rows:
        change = "n/a" if row.relative is None else "%+.2f" % row.relative
        lines.append(
            "%s\t%s\t%.2f\t%.2f (%s)"
            % (row.segment, row.name, row.baseline * 100, row.condition * 100, change)
        )
    return "\n".join(lines) + "\n"
