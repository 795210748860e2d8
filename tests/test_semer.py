"""Semantic error rate and run comparison."""

import random
from pathlib import Path

import pytest

from mtnlu.corpus import SlotSpan, Utterance, make_span
from mtnlu.errors import FormatError
from mtnlu.nlu import NluHypothesis
from mtnlu.semer import (
    SemerCounts,
    SemerReport,
    align_slots,
    compare_runs,
    format_comparison,
    read_semer_report,
    semer,
    write_semer_report,
)
from oracles import optimal_slot_alignment_errors


def span(slot_type, value, start=0):
    n = len(value.split())
    return SlotSpan(slot_type, start, start + n, value)


def spans(*pairs):
    out = []
    pos = 0
    for slot_type, value in pairs:
        out.append(span(slot_type, value, start=pos))
        pos += len(value.split()) + 1
    return tuple(out)


def ref(uid, intent, *slot_pairs, domain="D"):
    slot_list = spans(*slot_pairs)
    length = max((s.end for s in slot_list), default=0) + 1
    tokens = ["w%d" % i for i in range(length)]
    for s in slot_list:
        tokens[s.start : s.end] = s.value.split()
    return Utterance(uid, "de", domain, intent, tuple(tokens), slot_list)


def hyp(intent, *slot_pairs, confidence=1.0):
    return NluHypothesis(intent, confidence, spans(*slot_pairs))


class TestAlignSlots:
    def test_equal_value_is_a_match(self):
        a = align_slots(spans(("Artist", "queen")), spans(("Artist", "queen")))
        assert a == (1, 0, 0, 0)

    def test_value_comparison_ignores_case(self):
        a = align_slots(spans(("Artist", "Queen")), spans(("Artist", "queen")))
        assert a.matches == 1 and a.substitutions == 0

    def test_different_value_is_a_substitution(self):
        a = align_slots(spans(("Artist", "queen")), spans(("Artist", "prince")))
        assert a == (0, 1, 0, 0)

    def test_unpaired_reference_is_a_deletion(self):
        a = align_slots(
            spans(("Artist", "queen"), ("Song", "x")), spans(("Artist", "queen"))
        )
        assert a == (1, 0, 1, 0)

    def test_unpaired_hypothesis_is_an_insertion(self):
        a = align_slots((), spans(("Artist", "queen")))
        assert a == (0, 0, 0, 1)

    def test_type_mismatch_is_deletion_plus_insertion(self):
        a = align_slots(spans(("Artist", "queen")), spans(("Song", "queen")))
        assert a == (0, 0, 1, 1)

    def test_greedy_pairing_is_in_order(self):
        # ref (a, b) vs hyp (b): greedy pairs a-b (substitution) and deletes b,
        # even though matching b-b would cost less.
        a = align_slots(
            spans(("T", "a"), ("T", "b")), spans(("T", "b"))
        )
        assert a == (0, 1, 1, 0)
        assert optimal_slot_alignment_errors(
            spans(("T", "a"), ("T", "b")), spans(("T", "b"))
        ) == 1

    def test_greedy_never_beats_the_optimal_assignment(self):
        rng = random.Random(3)
        for _ in range(300):
            types = ["A", "B"]
            values = ["u", "v", "w"]
            r = [(rng.choice(types), rng.choice(values)) for _ in range(rng.randint(0, 4))]
            h = [(rng.choice(types), rng.choice(values)) for _ in range(rng.randint(0, 4))]
            a = align_slots(spans(*r), spans(*h))
            greedy = a.substitutions + a.deletions + a.insertions
            assert greedy >= optimal_slot_alignment_errors(spans(*r), spans(*h))

    def test_greedy_matches_optimal_on_in_order_edits(self):
        # hypotheses derived from the reference by in-place substitutions with
        # fresh values plus deletions/insertions at each type's tail keep the
        # pairing aligned, so greedy equals the optimal assignment.
        rng = random.Random(4)
        for case in range(300):
            r = [("T%d" % rng.randint(0, 1), "v%d" % i) for i in range(rng.randint(0, 4))]
            by_type = {}
            for t, v in r:
                by_type.setdefault(t, []).append(v)
            h = []
            fresh = 0
            for t in sorted(by_type):
                vals = by_type[t]
                kept = rng.randint(0, len(vals))  # drop a tail, never a prefix
                for v in vals[:kept]:
                    if rng.random() < 0.3:
                        h.append((t, "fresh%d" % fresh))
                        fresh += 1
                    else:
                        h.append((t, v))
                if rng.random() < 0.3:
                    h.append((t, "fresh%d" % fresh))
                    fresh += 1
            a = align_slots(spans(*r), spans(*h))
            greedy = a.substitutions + a.deletions + a.insertions
            assert greedy == optimal_slot_alignment_errors(spans(*r), spans(*h))


class TestSemer:
    def test_perfect_hypotheses_score_zero(self):
        refs = [ref("u1", "Play", ("Artist", "queen")), ref("u2", "Stop")]
        hyps = {
            "u1": hyp("Play", ("Artist", "queen")),
            "u2": hyp("Stop"),
        }
        report = semer(refs, hyps)
        assert report.overall.semer == 0.0
        assert report.overall.reference_count == 3

    def test_one_missing_slot_out_of_two(self):
        refs = [ref("u1", "Play", ("Artist", "queen"), ("Song", "x"))]
        hyps = {"u1": hyp("Play", ("Artist", "queen"))}
        report = semer(refs, hyps)
        assert report.overall.reference_count == 3
        assert report.overall.deletions == 1
        assert report.overall.semer == pytest.approx(1 / 3, abs=1e-12)

    def test_intent_only_utterance(self):
        report = semer([ref("u1", "Stop")], {"u1": hyp("Play")})
        assert report.overall.reference_count == 1
        assert report.overall.intent_errors == 1
        assert report.overall.semer == 1.0

    def test_semer_can_exceed_one(self):
        hyps = {"u1": hyp("Wrong", ("A", "x"), ("B", "y"), ("C", "z"))}
        report = semer([ref("u1", "Stop")], hyps)
        assert report.overall.insertions == 3
        assert report.overall.semer == 4.0

    def test_zero_iff_exact(self):
        refs = [ref("u1", "Play", ("Artist", "queen"))]
        assert semer(refs, {"u1": hyp("Play", ("Artist", "prince"))}).overall.semer > 0
        assert semer(refs, {"u1": hyp("Play", ("Artist", "queen"))}).overall.semer == 0

    def test_missing_hypothesis_lists_ids(self):
        refs = [ref("u1", "Play"), ref("u2", "Stop")]
        with pytest.raises(ValueError, match="u1, u2"):
            semer(refs, {})

    def test_per_domain_partition(self):
        rng = random.Random(8)
        refs = []
        hyps = {}
        for i in range(120):
            uid = "u%d" % i
            domain = rng.choice(["Music", "Weather", "Alarm"])
            intent = rng.choice(["I1", "I2"])
            slot_pairs = [("T", rng.choice("abc")) for _ in range(rng.randint(0, 2))]
            refs.append(ref(uid, intent, *slot_pairs, domain=domain))
            hyp_pairs = [("T", rng.choice("abc")) for _ in range(rng.randint(0, 2))]
            hyps[uid] = hyp(rng.choice(["I1", "I2"]), *hyp_pairs)
        report = semer(refs, hyps)
        total = sum(report.per_domain.values(), SemerCounts())
        assert total == report.overall
        assert set(report.per_domain) == {u.domain for u in refs}


class TestReportIO:
    def build(self):
        refs = [
            ref("u1", "Play", ("Artist", "queen"), domain="Music"),
            ref("u2", "Stop", domain="Music"),
            ref("u3", "GetWeather", ("City", "berlin"), domain="Weather"),
        ]
        hyps = {
            "u1": hyp("Play", ("Artist", "prince")),
            "u2": hyp("Play"),
            "u3": hyp("GetWeather", ("City", "berlin")),
        }
        return semer(refs, hyps)

    def test_round_trip(self, tmp_path):
        report = self.build()
        path = str(tmp_path / "report.tsv")
        write_semer_report(report, path)
        assert read_semer_report(path) == report

    def test_write_is_deterministic(self, tmp_path):
        report = self.build()
        a, b = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
        write_semer_report(report, a)
        write_semer_report(report, b)
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_read_rejects_inconsistent_error_total(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "overall\t-\t3\t1\t0\t0\t0\t2\t0.6667\n", encoding="utf-8"
        )
        with pytest.raises(FormatError, match="total"):
            read_semer_report(str(path))

    def test_read_rejects_missing_overall(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("domain\tMusic\t3\t1\t0\t0\t0\t1\t0.3333\n", encoding="utf-8")
        with pytest.raises(FormatError, match="overall"):
            read_semer_report(str(path))

    def test_read_rejects_domain_sum_mismatch(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "overall\t-\t5\t1\t0\t0\t0\t1\t0.2000\n"
            "domain\tMusic\t3\t1\t0\t0\t0\t1\t0.3333\n",
            encoding="utf-8",
        )
        with pytest.raises(FormatError, match="per-domain"):
            read_semer_report(str(path))


def report_with_semer(errors, reference_count=10000):
    counts = SemerCounts(reference_count=reference_count, substitutions=errors)
    return SemerReport(counts, {"All": counts})


class TestCompareRuns:
    def test_improvement_rounds_to_minus_3_point_1(self):
        rows = compare_runs(report_with_semer(2138), report_with_semer(2072))
        overall = rows[0]
        assert overall.baseline * 100 == pytest.approx(21.38)
        assert overall.condition * 100 == pytest.approx(20.72)
        assert round(overall.relative, 1) == -3.1

    def test_regression_rounds_to_plus_10_point_5(self):
        rows = compare_runs(report_with_semer(2138), report_with_semer(2362))
        assert round(rows[0].relative, 1) == 10.5

    def test_identical_reports_show_zero_change(self):
        rows = compare_runs(report_with_semer(2138), report_with_semer(2138))
        assert rows[0].relative == 0.0

    def test_mismatched_reference_size_is_an_error(self):
        with pytest.raises(ValueError, match="reference size"):
            compare_runs(
                report_with_semer(10), report_with_semer(10, reference_count=9999)
            )

    def test_mismatched_domains_are_an_error(self):
        counts = SemerCounts(reference_count=10, substitutions=1)
        a = SemerReport(counts, {"X": counts})
        b = SemerReport(counts, {"Y": counts})
        with pytest.raises(ValueError, match="domains"):
            compare_runs(a, b)

    def test_zero_baseline_has_no_relative_change(self):
        rows = compare_runs(report_with_semer(0), report_with_semer(5))
        assert rows[0].relative is None

    def test_formatting(self):
        text = format_comparison(
            compare_runs(report_with_semer(2138), report_with_semer(2072))
        )
        lines = text.splitlines()
        assert lines[0] == "segment\tname\tbaseline\tcondition"
        assert lines[1] == "overall\t-\t21.38\t20.72 (-3.09)"
        assert lines[2] == "domain\tAll\t21.38\t20.72 (-3.09)"
