"""Output checks for one pipeline run, computed apart from the program.

Every check reads the files the run wrote with this module's own parsers and
compares them with the generator's records or with results recomputed here.
Each returns a list of problems; an empty list means the check passed.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from workloads import Inputs

_TOKEN = re.compile(r"\[([^\[\]]+)\]\(([^()\s]+)\)|(\S+)")

STAGE_FILES = {  # stage -> (kept corpus, removed ids)
    "project": ("corpus_projected.tsv", "removed_project.tsv"),
    "filter-semantic": ("corpus_semantic.tsv", "removed_semantic.tsv"),
    "filter-score": ("corpus_scored.tsv", "removed_score.tsv"),
    "postprocess": ("corpus_postprocessed.tsv", None),
}


def parse_utterance(line: str):
    """(id, domain, intent, tokens, [(slot type, lowercased value)])."""
    uid, domain, intent, markup = line.rstrip("\n").split("\t")[:4]
    tokens, slots = [], []
    for m in _TOKEN.finditer(markup):
        if m.group(3) is not None:
            tokens.append(m.group(3))
        else:
            words = m.group(1).split()
            tokens.extend(words)
            slots.append((m.group(2), " ".join(words).lower()))
    return uid, domain, intent, tokens, slots


def read_lines(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh if line.strip()]


def read_ids(path: Path) -> list[str]:
    return [line.split("\t", 1)[0] for line in read_lines(path)]


def read_removed(path: Path) -> dict[str, str]:
    return dict(line.rstrip("\n").split("\t") for line in read_lines(path))


def read_stage_reports(path: Path) -> tuple[dict, list[str]]:
    rows, problems = {}, []
    for line in read_lines(path)[1:]:
        fields = line.rstrip("\n").split("\t")
        if fields[0] == "# failed":
            problems.append("stage %s failed: %s" % (fields[1], fields[2]))
            continue
        removed = {}
        if fields[3] != "-":
            for item in fields[3].split(","):
                reason, count = item.split("=")
                removed[reason] = int(count)
        rows[fields[0]] = (int(fields[1]), int(fields[2]), removed)
    return rows, problems


def histogram(reasons) -> dict[str, int]:
    out: dict[str, int] = {}
    for reason in reasons:
        out[reason] = out.get(reason, 0) + 1
    return out


def check_stages(out: Path, inputs: Inputs) -> list[str]:
    """input - removed = output per stage, and the kept and removed ids of
    each filtering stage partition that stage's input."""
    rows, problems = read_stage_reports(out / "stage_reports.tsv")
    for stage, (n_in, n_out, removed) in rows.items():
        if n_in - sum(removed.values()) != n_out:
            problems.append("%s: %d - %d != %d" % (stage, n_in, sum(removed.values()), n_out))
    ids = [u.uid for u in inputs.source]
    if "translate" in rows:
        translated = read_ids(out / "translations.tsv")
        if not set(translated) <= set(ids) \
                or rows["translate"][:2] != (len(ids), len(translated)):
            problems.append("translate: translations.tsv does not match the report")
        ids = [i for i in ids if i in set(translated)]
    for stage, (kept_file, removed_file) in STAGE_FILES.items():
        if stage not in rows:
            continue
        kept = read_ids(out / kept_file)
        removed = read_removed(out / removed_file) if removed_file else {}
        if (len(kept) + len(removed) != len(ids) or set(kept) | set(removed) != set(ids)
                or set(kept) & set(removed)):
            problems.append("%s: kept and removed ids do not partition the input" % stage)
        if (rows[stage][0], rows[stage][1]) != (len(ids), len(kept)) \
                or histogram(removed.values()) != rows[stage][2]:
            problems.append("%s: report does not match its files" % stage)
        ids = kept
    if "train" in rows and rows["train"][:2] != (len(ids), len(ids)):
        problems.append("train: report does not match the postprocessed corpus")
    if "evaluate" in rows and rows["evaluate"][:2] != (len(inputs.test), len(inputs.test)):
        problems.append("evaluate: report does not cover the test corpus")
    return problems


def align(ref_slots, hyp_slots) -> tuple[int, int, int]:
    """Substitutions, deletions, insertions of the k-th-to-k-th pairing of
    same-type slots."""
    by_type: dict[str, tuple[list, list]] = {}
    for side, slots in enumerate((ref_slots, hyp_slots)):
        for slot_type, value in slots:
            by_type.setdefault(slot_type, ([], []))[side].append(value)
    sub = dele = ins = 0
    for refs, hyps in by_type.values():
        sub += sum(r != h for r, h in zip(refs, hyps))
        dele += max(0, len(refs) - len(hyps))
        ins += max(0, len(hyps) - len(refs))
    return sub, dele, ins


def check_semer(out: Path, inputs: Inputs, max_intent_error: float) -> list[str]:
    """Recompute SemER from hypotheses.tsv and the generated test corpus and
    compare it with the overall row of semer_report.tsv."""
    problems = []
    refs = {u.uid: u for u in inputs.test}
    counts = [0, 0, 0, 0, 0]  # reference, intent errors, sub, del, ins
    seen = set()
    for line in read_lines(out / "hypotheses.tsv"):
        uid, _, intent, tokens, slots = parse_utterance(line)
        confidence = float(line.rsplit("\t", 1)[1])
        ref = refs.get(uid)
        if ref is None or tuple(tokens) != ref.tokens or not 0.0 <= confidence <= 1.0:
            problems.append("hypothesis %s does not match the test corpus" % uid)
            continue
        seen.add(uid)
        ref_slots = [(t, " ".join(ref.tokens[a:b]).lower()) for t, a, b in ref.slots]
        counts[0] += len(ref.slots) + 1
        counts[1] += intent != ref.intent
        for i, n in enumerate(align(ref_slots, slots), 2):
            counts[i] += n
    if seen != set(refs):
        problems.append("hypotheses.tsv covers %d of %d test utterances" % (len(seen), len(refs)))
    overall = [line.rstrip("\n").split("\t") for line in read_lines(out / "semer_report.tsv")
               if line.startswith("overall\t")]
    reported = [int(x) for x in overall[0][2:8]] if overall else None
    if reported != counts + [sum(counts[1:])]:
        problems.append("semer_report.tsv overall %s != recomputed %s"
                        % (reported, counts + [sum(counts[1:])]))
    if counts[1] > max_intent_error * len(refs):
        problems.append("intent error rate %d/%d above %.2f"
                        % (counts[1], len(refs), max_intent_error))
    return problems


def check_filter(out: Path, inputs: Inputs) -> list[str]:
    """The semantic filter removes at least 80% of the corrupted and at most
    20% of the clean translations that reach it."""
    if not inputs.corrupted:
        return []
    reached = set(read_ids(out / "corpus_projected.tsv"))
    removed = set(read_removed(out / "removed_semantic.tsv"))
    corrupted = reached & inputs.corrupted
    clean = reached - inputs.corrupted
    problems = []
    if len(removed & corrupted) < 0.8 * len(corrupted):
        problems.append("filter-semantic removed %d of %d corrupted"
                        % (len(removed & corrupted), len(corrupted)))
    if len(removed & clean) > 0.2 * len(clean):
        problems.append("filter-semantic removed %d of %d clean"
                        % (len(removed & clean), len(clean)))
    return problems


def check_translations(out: Path, inputs: Inputs) -> list[str]:
    """Decoder output: every source position aligned, every target token a
    phrase-table target or a copied OOV source token, and the total the
    weighted sum of the components."""
    if not inputs.phrase_targets:
        return []
    config = json.loads(inputs.config.read_text(encoding="utf-8"))
    weights = config["translation"].get("weights", [1.0, 1.0, 1.0, 1.0])
    sources = {u.uid: u.tokens for u in inputs.source}
    problems = []
    for line in read_lines(out / "translations.tsv"):
        uid, target, pairs, *scores = line.rstrip("\n").split("\t")
        tokens = sources[uid]
        target = target.split()
        alignment = [tuple(map(int, p.split("-"))) for p in pairs.split()]
        oov = set(tokens) - inputs.phrase_sources
        if {s for s, _ in alignment} != set(range(len(tokens))) \
                or any(not 0 <= t < len(target) for _, t in alignment):
            problems.append("%s: alignment does not cover the source" % uid)
        if any(w not in inputs.phrase_targets and w not in oov for w in target):
            problems.append("%s: target token from neither phrase table nor source" % uid)
        components, total = [float(x) for x in scores[:4]], float(scores[4])
        if abs(sum(w * c for w, c in zip(weights, components)) - total) > 1e-9:
            problems.append("%s: weighted_total is not the weighted sum" % uid)
    return problems


def check_pipeline(out: Path, inputs: Inputs, max_intent_error: float) -> list[str]:
    try:
        return (check_stages(out, inputs) + check_semer(out, inputs, max_intent_error)
                + check_filter(out, inputs) + check_translations(out, inputs))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return ["unreadable output: %r" % exc]


def digest(out: Path) -> dict[str, str]:
    """sha256 of every file under `out`, keyed by relative path."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}
