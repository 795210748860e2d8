"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines as
they are produced; without -s they appear in pytest's captured output.
"""

import itertools
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest

import toytask
from mtnlu.corpus import SlotSpan, Utterance, make_span, parse_annotated_line, serialize_utterance
from mtnlu.filtering import (
    FilterConfig,
    compute_domain_stats,
    roundtrip_filter,
    score_filter,
)
from mtnlu.nlu import (
    CrfModel,
    MaxEntModel,
    NluHypothesis,
    TrainingConfig,
    crf_objective,
    maxent_objective,
    predict,
    train_intent_classifier,
    train_slot_tagger,
    viterbi,
)
from mtnlu.postprocess import (
    PostprocessConfig,
    combined_postprocess,
    resample_slots,
    retain_original_slots,
)
from mtnlu.semer import SemerCounts, SemerReport, compare_runs, semer, utterance_counts
from mtnlu.translate import (
    BigramLM,
    FileTranslator,
    PhraseTableModel,
    PhraseTableTranslator,
    TranslationResult,
    TranslationScores,
    decode,
    project_annotations,
)
from oracles import (
    best_label_sequence,
    enumerate_best_translation,
    enumerate_translation_candidates,
    finite_difference_gradient,
    max_relative_error,
)


def verdict(name: str, ok: bool, detail: str = "") -> None:
    line = "%s  %s" % ("PASS" if ok else "FAIL", name)
    if detail:
        line += "  [%s]" % detail
    print(line)
    assert ok, line


# --- 1. slot-error-rate hand table -------------------------------------------


def _ref(intent, slot_pairs, uid="u1", domain="D"):
    tokens: list[str] = []
    spans: list[SlotSpan] = []
    for slot_type, value in slot_pairs:
        words = value.split()
        start = len(tokens)
        tokens.extend(words)
        spans.append(SlotSpan(slot_type, start, start + len(words), value))
    tokens.append("end")
    return Utterance(uid, domain, intent, tuple(tokens), tuple(spans))


def _hyp(intent, slot_pairs, confidence=1.0):
    spans = []
    pos = 0
    for slot_type, value in slot_pairs:
        n = len(value.split())
        spans.append(SlotSpan(slot_type, pos, pos + n, value))
        pos += n
    return NluHypothesis(intent, confidence, tuple(spans))


def test_criterion_1_semer_hand_table():
    t0 = time.perf_counter()
    # (reference, hypothesis, exact expected value for a single utterance)
    table = [
        # perfect interpretation, two slots
        (_ref("A", [("S", "x"), ("T", "y")]), _hyp("A", [("S", "x"), ("T", "y")]), 0.0),
        # intent error only, no slots
        (_ref("A", []), _hyp("B", []), 1.0),
        # intent error with two correct slots: 1 error / (2 slots + 1)
        (_ref("A", [("S", "x"), ("T", "y")]), _hyp("B", [("S", "x"), ("T", "y")]), 1 / 3),
        # one substitution (same type, different value)
        (_ref("A", [("S", "x")]), _hyp("A", [("S", "z")]), 1 / 2),
        # one deletion (reference slot never produced)
        (_ref("A", [("S", "x")]), _hyp("A", []), 1 / 2),
        # one insertion against an empty reference
        (_ref("A", []), _hyp("A", [("S", "x")]), 1.0),
        # match plus one extra hypothesis slot
        (_ref("A", [("S", "x")]), _hyp("A", [("S", "x"), ("T", "y")]), 1 / 2),
        # type mismatch counts as deletion + insertion
        (_ref("A", [("S", "x")]), _hyp("A", [("T", "x")]), 1.0),
        # values compare case-insensitively
        (_ref("A", [("City", "Berlin")]), _hyp("A", [("City", "berlin")]), 0.0),
        # one of two slots substituted
        (_ref("A", [("S", "x"), ("T", "y")]), _hyp("A", [("S", "x"), ("T", "z")]), 1 / 3),
        # intent error plus a deleted slot
        (_ref("A", [("S", "x")]), _hyp("B", []), 1.0),
        # rate above one: intent error plus three inserted slots
        (_ref("A", []), _hyp("B", [("S", "x"), ("T", "y"), ("U", "z")]), 4.0),
        # in-order pairing: [a, b] vs [b] pairs a-b first (sub + deletion)
        (_ref("A", [("S", "a"), ("S", "b")]), _hyp("A", [("S", "b")]), 2 / 3),
        # multi-word values
        (_ref("A", [("S", "new york")]), _hyp("A", [("S", "new york")]), 0.0),
    ]
    failures = []
    for i, (ref, hyp, expected) in enumerate(table):
        got = utterance_counts(ref, hyp).semer
        if abs(got - expected) > 1e-12:
            failures.append("case %d: %r != %r" % (i, got, expected))

    # aggregation: numerators and denominators sum across utterances
    refs = [_ref("A", [("S", "x"), ("T", "y")], uid="u1"),
            _ref("A", [], uid="u2")]
    hyps = {"u1": _hyp("A", [("S", "x"), ("T", "y")]), "u2": _hyp("B", [])}
    got = semer(refs, hyps).overall.semer
    if abs(got - 1 / 4) > 1e-12:
        failures.append("aggregate: %r != %r" % (got, 1 / 4))

    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append("took %.2fs" % elapsed)
    verdict(
        "criterion 1: slot-error-rate hand table (%d pairs, tol 1e-12)" % len(table),
        not failures,
        "; ".join(failures) or "%.3fs" % elapsed,
    )


# --- 2. Viterbi against exhaustive search -------------------------------------


_VOCAB = ["play", "stop", "in", "berlin", "queen", "now"]


def _random_tagger(rng, seed, slot_types=("City", "Song")):
    corpus = []
    for k in range(4):
        n = rng.randint(2, 5)
        tokens = tuple(rng.choice(_VOCAB) for _ in range(n))
        slots = []
        if rng.random() < 0.7:
            slots.append(make_span(tokens, rng.choice(slot_types), 0, 1))
        corpus.append(Utterance("u%d" % k, "D", "I", tokens, tuple(slots)))
    model = train_slot_tagger(corpus, TrainingConfig(max_iterations=0))
    gen = np.random.default_rng(seed)
    model.emissions = gen.normal(0, 0.8, model.emissions.shape)
    model.transitions = gen.normal(0, 0.8, model.transitions.shape)
    return model


def test_criterion_2_viterbi_matches_brute_force():
    t0 = time.perf_counter()
    rng = random.Random(101)
    cases = 0
    failures = []
    for seed in range(40):
        model = _random_tagger(rng, seed)
        assert len(model.labels) <= 5
        for _ in range(5):
            n = rng.randint(1, 3)
            tokens = tuple(rng.choice(_VOCAB) for _ in range(n))
            labels, score = viterbi(model, tokens)
            seq, best = best_label_sequence(
                model.emission_scores(tokens), model.transitions
            )
            cases += 1
            if tuple(model.labels.index(l) for l in labels) != seq:
                failures.append("seed %d: path mismatch on %r" % (seed, tokens))
            elif abs(score - best) > 1e-9 * max(1.0, abs(best)):
                failures.append("seed %d: score %r != %r" % (seed, score, best))
    elapsed = time.perf_counter() - t0
    if cases < 200:
        failures.append("only %d cases" % cases)
    if elapsed >= 10.0:
        failures.append("took %.2fs" % elapsed)
    verdict(
        "criterion 2: Viterbi vs exhaustive search (%d cases)" % cases,
        not failures,
        "; ".join(failures) or "%.2fs" % elapsed,
    )


# --- 3. analytic gradients against finite differences --------------------------


def test_criterion_3_gradients_match_finite_differences():
    rng = random.Random(202)
    h, tol = 1e-5, 1e-4
    failures = []

    crf_checked = 0
    for seed in range(20):
        model = _random_tagger(rng, 500 + seed)
        model.l2 = 0.05
        corpus = [
            (
                tuple(rng.choice(_VOCAB) for _ in range(rng.randint(1, 2))),
                None,
            )
            for _ in range(3)
        ]
        corpus = [
            (tokens, tuple(rng.choice(model.labels) for _ in tokens))
            for tokens, _ in corpus
        ]
        _, (g_em, g_tr) = crf_objective(model, corpus)
        F, L = model.emissions.shape

        def crf_fun(x, model=model, corpus=corpus, F=F, L=L):
            m = CrfModel(
                model.labels, model.feature_index,
                x[: F * L].reshape(F, L), x[F * L:].reshape(L, L),
                model.gazetteers, model.l2,
            )
            return crf_objective(m, corpus)[0]

        x0 = np.concatenate([model.emissions.ravel(), model.transitions.ravel()])
        fd = finite_difference_gradient(crf_fun, x0, h=h)
        err = max_relative_error(np.concatenate([g_em.ravel(), g_tr.ravel()]), fd)
        crf_checked += 1
        if err >= tol:
            failures.append("crf seed %d: rel err %.2e" % (seed, err))

    intents = ["A", "B", "C"]
    maxent_checked = 0
    for seed in range(20):
        corpus = [
            Utterance(
                "u%d" % i, "D", rng.choice(intents),
                tuple(rng.choice(_VOCAB) for _ in range(rng.randint(1, 4))),
            )
            for i in range(8)
        ]
        model = train_intent_classifier(corpus, TrainingConfig(max_iterations=0))
        gen = np.random.default_rng(900 + seed)
        model.weights = gen.normal(0, 0.5, model.weights.shape)
        model.l2 = 0.05
        pairs = [(u.tokens, u.intent) for u in corpus]
        _, grad = maxent_objective(model, pairs)

        def me_fun(x, model=model, pairs=pairs):
            m = MaxEntModel(
                model.intents, model.feature_index,
                x.reshape(model.weights.shape), model.gazetteers, model.l2,
            )
            return maxent_objective(m, pairs)[0]

        fd = finite_difference_gradient(me_fun, model.weights.ravel(), h=h)
        err = max_relative_error(grad.ravel(), fd)
        maxent_checked += 1
        if err >= tol:
            failures.append("maxent seed %d: rel err %.2e" % (seed, err))

    verdict(
        "criterion 3: gradients vs central differences "
        "(%d tagger + %d classifier instances, h=%.0e, tol %.0e)"
        % (crf_checked, maxent_checked, h, tol),
        not failures,
        "; ".join(failures),
    )


# --- 4. decoder against exhaustive enumeration ---------------------------------


def _random_phrase_model(rng):
    src_vocab = ["a", "b", "c"]
    tgt_vocab = ["x", "y", "z", "w"]
    pairs = []
    for n in (1, 2):
        for src in itertools.product(src_vocab, repeat=n):
            for _ in range(rng.randint(0, 2)):
                m = rng.randint(1, 2)
                tgt = tuple(rng.choice(tgt_vocab) for _ in range(m))
                pairs.append((src, tgt, rng.uniform(-3.0, -0.1)))
    if not pairs:  # ensure a non-empty table
        pairs.append((("a",), ("x",), -1.0))
    weights = (
        rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5),
        rng.uniform(0.5, 1.5), rng.uniform(-1.5, -0.5),
    )
    lm_sentences = [
        [rng.choice(tgt_vocab) for _ in range(rng.randint(1, 4))] for _ in range(6)
    ]
    return PhraseTableModel.from_pairs(
        pairs, lm_sentences=lm_sentences, lm_alpha=0.2,
        weights=weights, max_jump=rng.randint(0, 2),
    ), src_vocab


def test_criterion_4_decoder_matches_enumeration():
    rng = random.Random(303)
    tables = 0
    sentences = 0
    failures = []
    for table_seed in range(50):
        model, src_vocab = _random_phrase_model(rng)
        tables += 1
        for n in (1, 2, 3):
            for sent in itertools.product(src_vocab, repeat=n):
                r = decode(list(sent), model)
                candidates = enumerate_translation_candidates(sent, model)
                total, target, _ = enumerate_best_translation(sent, model)
                sentences += 1
                # The decoded target must be an argmax under the oracle's own
                # arithmetic; when the optimum is isolated (no competing
                # target within 1e-6) the targets must agree exactly.
                found = candidates.get(r.target_tokens)
                isolated = all(
                    t <= total - 1e-6
                    for cand, (t, _) in candidates.items()
                    if cand != target
                )
                ok = (
                    found is not None
                    and r.scores.weighted_total == pytest.approx(total, abs=1e-9)
                    and found[0] == pytest.approx(total, abs=1e-9)
                    and r.scores.components() == pytest.approx(found[1], abs=1e-9)
                    and (r.target_tokens == target or not isolated)
                )
                if not ok:
                    failures.append(
                        "table %d %r: %r/%r vs %r/%r"
                        % (table_seed, sent, r.target_tokens,
                           r.scores.weighted_total, target, total)
                    )
    verdict(
        "criterion 4: decoder vs enumeration (%d tables, %d sentences)"
        % (tables, sentences),
        not failures,
        "; ".join(failures[:3]),
    )


# --- 5. score filter: hand example and threshold nesting -----------------------


def _scored(uid, domain, total, length=1):
    target = tuple("t%d" % i for i in range(length))
    u = Utterance(uid, domain, "I", ("s",))
    r = TranslationResult(
        target, frozenset({(0, 0)}),
        TranslationScores(0.0, 0.0, 0.0, 0.0, total),
    )
    return u, r


def test_criterion_5_score_filter():
    failures = []
    corpus, translations = [], {}
    for i, total in enumerate([-1.0, -2.0, -3.0, -4.0], start=1):
        u, r = _scored("u%d" % i, "Music", total)
        corpus.append(u)
        translations[u.id] = r
    stats = compute_domain_stats(corpus, translations)
    mu, sigma = stats["Music"].mean, stats["Music"].stdev
    if abs(mu - (-2.5)) > 1e-12:
        failures.append("mean %r" % mu)
    if abs(sigma - 1.25 ** 0.5) > 1e-12:
        failures.append("stdev %r" % sigma)

    def kept_ids(k):
        return {u.id for u in score_filter(corpus, translations, stats, k).kept}

    if kept_ids(0.0) != {"u1", "u2"}:
        failures.append("k=0 kept %r" % sorted(kept_ids(0.0)))
    if kept_ids(-0.5) != {"u1", "u2", "u3"}:
        failures.append("k=-0.5 kept %r" % sorted(kept_ids(-0.5)))
    if kept_ids(None) != {"u1", "u2", "u3", "u4"}:
        failures.append("k=None kept %r" % sorted(kept_ids(None)))

    # nesting: a larger multiplier never keeps an utterance a smaller one drops
    rng = random.Random(404)
    checked = 0
    for case in range(100):
        corpus, translations = [], {}
        for i in range(rng.randint(2, 12)):
            u, r = _scored(
                "r%d" % i, rng.choice(["D1", "D2", "D3"]),
                rng.uniform(-20, 0), length=rng.randint(1, 5),
            )
            corpus.append(u)
            translations[u.id] = r
        stats = compute_domain_stats(corpus, translations)
        ks = sorted(rng.uniform(-2, 2) for _ in range(4))
        kept_sets = [
            {u.id for u in score_filter(corpus, translations, stats, k).kept}
            for k in ks
        ]
        for smaller, larger in zip(kept_sets, kept_sets[1:]):
            checked += 1
            if not larger <= smaller:
                failures.append("case %d: nesting violated" % case)
    verdict(
        "criterion 5: score filter hand example and nesting (%d pairs)" % checked,
        not failures,
        "; ".join(failures[:3]),
    )


# --- 6. corrupted-translation experiment ---------------------------------------


def test_criterion_6_corruption_experiment():
    t0 = time.perf_counter()
    failures = []
    hyper = TrainingConfig(l2=1e-3, max_iterations=60, tolerance=1e-6)

    source = toytask.sample_source(5000, seed=21)
    if len({u.intent for u in source}) < 5:
        failures.append("fewer than 5 intents sampled")
    if len({s.slot_type for u in source for s in u.slots}) < 5:
        failures.append("fewer than 5 slot types sampled")

    results, corrupted = toytask.forward_results(source, corrupt_fraction=0.3, seed=22)
    forward = FileTranslator(results)
    backward = PhraseTableTranslator(
        PhraseTableModel.from_pairs(
            [((w + toytask.SUFFIX,), (w,), -0.1) for w in toytask.vocabulary()],
            max_jump=0,
        )
    )
    gazetteers = toytask.source_catalogs()
    crf = train_slot_tagger(source, hyper, gazetteers=gazetteers)
    maxent = train_intent_classifier(source, hyper, gazetteers=gazetteers)
    outcome = roundtrip_filter(
        source, forward, backward, (crf, maxent),
        FilterConfig(mode="INTENT"),
    )

    removed_ids = {uid for uid, _ in outcome.removed}
    clean_ids = {u.id for u in source} - corrupted
    corrupted_removed = len(removed_ids & corrupted) / len(corrupted)
    clean_removed = len(removed_ids & clean_ids) / len(clean_ids)
    if corrupted_removed < 0.8:
        failures.append("only %.1f%% of corrupted removed" % (100 * corrupted_removed))
    if clean_removed > 0.2:
        failures.append("%.1f%% of clean removed" % (100 * clean_removed))

    test = toytask.sample_target_test(800, seed=23)
    target_gazetteers = toytask.target_catalogs()

    def train_and_score(corpus):
        crf_t = train_slot_tagger(corpus, hyper, gazetteers=target_gazetteers)
        maxent_t = train_intent_classifier(corpus, hyper, gazetteers=target_gazetteers)
        hyps = {u.id: predict(crf_t, maxent_t, u.tokens) for u in test}
        return semer(test, hyps).overall.semer

    unfiltered = [project_annotations(u, results[u.id]) for u in source]
    semer_unfiltered = train_and_score(unfiltered)
    semer_filtered = train_and_score(outcome.kept)
    if semer_filtered > semer_unfiltered:
        failures.append(
            "filtered %.4f > unfiltered %.4f" % (semer_filtered, semer_unfiltered)
        )

    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        failures.append("took %.0fs" % elapsed)
    verdict(
        "criterion 6: corruption experiment (n=%d, 30%% corrupted)" % len(source),
        not failures,
        "; ".join(failures)
        or "removed %.1f%%/%.1f%% corrupt/clean; semer %.4f vs %.4f; %.0fs"
        % (100 * corrupted_removed, 100 * clean_removed,
           semer_filtered, semer_unfiltered, elapsed),
    )


# --- 7. slot-value post-processing ---------------------------------------------


def test_criterion_7_postprocess():
    from mtnlu.corpus import Catalog, CatalogEntry

    failures = []

    # resampling follows catalog weights (berlin 3.0 : hamburg 1.0)
    catalog = Catalog("City", (
        CatalogEntry(("berlin",), 3.0), CatalogEntry(("hamburg",), 1.0),
    ))
    corpus = []
    for i in range(10000):
        tokens = ("wetter", "in", "paris")
        corpus.append(Utterance(
            "u%06d" % i, "Info", "GetWeather", tokens,
            (make_span(tokens, "City", 2, 3),),
        ))
    out = resample_slots(
        corpus, {"City": catalog},
        PostprocessConfig(resample_slots=frozenset({"City"})), seed=5,
    )
    share = sum(u.slots[0].value == "berlin" for u in out) / len(out)
    if abs(share - 0.75) > 0.02:
        failures.append("berlin share %.4f" % share)

    # retention puts source values back in place of translated ones
    src_tokens = ("play", "we", "are", "the", "champions")
    src = Utterance("s1", "Music", "PlayMusic", src_tokens,
                    (make_span(src_tokens, "MediaName", 1, 5),))
    tgt_tokens = ("spiel", "wir", "sind", "die", "meister")
    tgt = Utterance("s1", "Music", "PlayMusic", tgt_tokens,
                    (make_span(tgt_tokens, "MediaName", 1, 5),))
    retained = retain_original_slots(
        [tgt], [src],
        PostprocessConfig(retain_original_slots=frozenset({"MediaName"})),
    )[0]
    if retained.tokens != ("spiel", "we", "are", "the", "champions"):
        failures.append("retention tokens %r" % (retained.tokens,))
    if retained.slots[0].value != "we are the champions":
        failures.append("retention value %r" % retained.slots[0].value)

    # corpus invariants survive random post-processing; untouched types and
    # tokens outside configured slots are preserved
    rng = random.Random(505)
    catalogs = {
        "A": Catalog("A", (CatalogEntry(("v1",), 1.0), CatalogEntry(("v2", "v3"), 1.0))),
        "B": Catalog("B", (CatalogEntry(("w1",), 1.0),)),
    }
    checked = 0
    for case in range(150):
        tokens = []
        spans = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5 and len(tokens) < 8:
                t = rng.choice(["A", "B", "C"])
                n = rng.randint(1, 2)
                start = len(tokens)
                tokens.extend("s%d" % rng.randint(0, 9) for _ in range(n))
                spans.append((t, start, len(tokens)))
            else:
                tokens.append("f%d" % rng.randint(0, 9))
        tokens = tuple(tokens)
        u = Utterance(
            "c%d" % case, "D", "I", tokens,
            tuple(make_span(tokens, t, s, e) for t, s, e in spans),
        )
        out = resample_slots(
            [u], catalogs,
            PostprocessConfig(resample_slots=frozenset({"A", "B"})), seed=case,
        )[0]
        # round-trips through the corpus file format
        if parse_annotated_line(serialize_utterance(out)) != out:
            failures.append("case %d: not serializable" % case)
        for before, after in zip(u.slots, out.slots):
            checked += 1
            if before.slot_type == "C" and after.value != before.value.lower():
                failures.append("case %d: unconfigured slot changed" % case)
            if after.value != " ".join(out.tokens[after.start:after.end]).lower():
                failures.append("case %d: span value out of sync" % case)
        before_outside = [t for i, t in enumerate(u.tokens)
                          if not any(s.start <= i < s.end for s in u.slots)]
        after_outside = [t for i, t in enumerate(out.tokens)
                         if not any(s.start <= i < s.end for s in out.slots)]
        if before_outside != after_outside:
            failures.append("case %d: tokens outside slots changed" % case)

    # a no-op configuration is the identity, byte for byte
    identity = combined_postprocess(
        [u], [], {}, PostprocessConfig(),
    )
    if [serialize_utterance(x) for x in identity] != [serialize_utterance(u)]:
        failures.append("identity config altered the corpus")

    verdict(
        "criterion 7: post-processing (frequencies, retention, %d invariants)"
        % checked,
        not failures,
        "; ".join(failures[:3]) or "berlin share %.4f" % share,
    )


# --- 8. end-to-end determinism ---------------------------------------------------


def test_criterion_8_pipeline_determinism(tmp_path):
    failures = []
    config = toytask.build_workspace(tmp_path, n_train=80, n_test=25)
    outputs = {}
    for name, hashseed in [("a", "1"), ("b", "309")]:
        env = os.environ.copy()
        env["PYTHONHASHSEED"] = hashseed
        proc = subprocess.run(
            [sys.executable, "-m", "mtnlu.cli", "pipeline",
             "--config", config, "--out", str(tmp_path / name)],
            capture_output=True, text=True, env=env,
        )
        if proc.returncode != 0:
            failures.append("run %s exited %d: %s"
                            % (name, proc.returncode, proc.stderr.strip()[:200]))
        outputs[name] = tmp_path / name

    if not failures:
        files_a = sorted(p.name for p in outputs["a"].iterdir())
        files_b = sorted(p.name for p in outputs["b"].iterdir())
        if files_a != files_b:
            failures.append("file sets differ: %r vs %r" % (files_a, files_b))
        else:
            for name in files_a:
                if (outputs["a"] / name).read_bytes() != (outputs["b"] / name).read_bytes():
                    failures.append("%s differs between runs" % name)
    n_files = len(list(outputs["a"].iterdir())) if outputs else 0
    verdict(
        "criterion 8: identical runs are byte-identical (%d files)" % n_files,
        not failures,
        "; ".join(failures[:3]),
    )


# --- 9. relative-change table -----------------------------------------------------


def _report(errors, reference_count=10000):
    counts = SemerCounts(reference_count=reference_count, substitutions=errors)
    return SemerReport(counts, {"All": counts})


def test_criterion_9_relative_change():
    failures = []
    baseline = _report(2138)
    for errors, expected in [(2072, -3.1), (2362, 10.5)]:
        rows = compare_runs(baseline, _report(errors))
        overall = next(r for r in rows if r.segment == "overall")
        got = round(overall.relative, 1)
        if got != expected:
            failures.append("errors %d: %r != %r" % (errors, got, expected))
    verdict(
        "criterion 9: relative change to one decimal",
        not failures,
        "; ".join(failures),
    )
