"""Independent brute-force reference implementations used only by tests.

Everything here favors obviousness over speed: exhaustive enumeration,
no shared code with the package internals beyond public score helpers.
"""

import itertools

from mtnlu.translate import combined_score


def enumerate_translation_candidates(tokens, model):
    """Exhaustive decode: best (total, components) per distinct target over
    every segmentation, ordering (within the jump limit), and phrase choice."""
    tokens = tuple(tokens)
    n = len(tokens)
    assert n >= 1

    # Effective options per contiguous span: table entries, or an identity
    # pair with the OOV penalty for uncovered single tokens.
    options = {}
    for i in range(n):
        for j in range(i + 1, n + 1):
            src = tuple(tokens[i:j])
            if src in model.phrases:
                options[(i, j)] = list(model.phrases[src])
            elif j == i + 1:
                options[(i, j)] = [((tokens[i],), model.oov_penalty)]

    def compositions(start):
        if start == n:
            yield []
            return
        for end in range(start + 1, n + 1):
            if (start, end) in options:
                for rest in compositions(end):
                    yield [(start, end)] + rest

    candidates = {}  # target -> (total, components)
    for blocks in compositions(0):
        for order in itertools.permutations(blocks):
            prev_end = 0
            reord = 0.0
            ok = True
            for i, j in order:
                jump = abs(i - prev_end)
                if jump > model.max_jump:
                    ok = False
                    break
                reord -= jump
                prev_end = j
            if not ok:
                continue
            for choice in itertools.product(*(options[b] for b in order)):
                target = tuple(w for tgt, _ in choice for w in tgt)
                tm = sum(score for _, score in choice)
                lm = model.lm.score(target)
                wp = -float(len(target))
                components = (tm, lm, reord, wp)
                total = combined_score(components, model.weights)
                prev = candidates.get(target)
                if prev is None or total > prev[0]:
                    candidates[target] = (total, components)
    assert candidates, "every sentence is coverable via identity pairs"
    return candidates


def enumerate_best_translation(tokens, model):
    """Exhaustive decode: best (total, target, components); exact ties go to
    the lexicographically smaller target."""
    best = None
    for target, (total, components) in enumerate_translation_candidates(
        tokens, model
    ).items():
        if (
            best is None
            or total > best[0]
            or (total == best[0] and target < best[1])
        ):
            best = (total, target, components)
    return best


def best_label_sequence(emissions, transitions):
    """Exhaustive argmax over label sequences for one emission matrix.

    emissions: (T, L) array-like of per-position label scores.
    transitions: (L, L) array-like.  Returns (labels tuple, score).
    """
    T = len(emissions)
    L = len(emissions[0])
    best = None
    for seq in itertools.product(range(L), repeat=T):
        score = emissions[0][seq[0]]
        for t in range(1, T):
            score += transitions[seq[t - 1]][seq[t]] + emissions[t][seq[t]]
        if best is None or score > best[1]:
            best = (seq, score)
    return best


def optimal_slot_alignment_errors(ref_slots, hyp_slots):
    """Minimum slot error count over all per-type partial matchings.

    Pairing a reference slot with a hypothesis slot of the same type costs
    0 when their lowercased values match and 1 otherwise; every unpaired
    reference is a deletion and every unpaired hypothesis an insertion.
    """
    types = {s.slot_type for s in ref_slots} | {s.slot_type for s in hyp_slots}
    total = 0
    for slot_type in types:
        refs = [s.value.lower() for s in ref_slots if s.slot_type == slot_type]
        hyps = [s.value.lower() for s in hyp_slots if s.slot_type == slot_type]
        best = None
        r, h = len(refs), len(hyps)
        k = min(r, h)
        for size in range(k + 1):
            for ref_pick in itertools.combinations(range(r), size):
                for hyp_pick in itertools.permutations(range(h), size):
                    cost = sum(
                        refs[i] != hyps[j] for i, j in zip(ref_pick, hyp_pick)
                    )
                    cost += (r - size) + (h - size)
                    if best is None or cost < best:
                        best = cost
        total += best or 0
    return total


def finite_difference_gradient(fun, x, h=1e-5):
    """Central finite differences of a scalar function over a flat vector."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step.flat[i] = h
        grad.flat[i] = (fun(x + step) - fun(x - step)) / (2 * h)
    return grad


def max_relative_error(a, b):
    """max_i |a_i - b_i| / max(1, |a_i|, |b_i|) over flat arrays."""
    import numpy as np

    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def gazetteer_hits_linear_scan(tokens, gazetteers):
    """Per-position slot types by comparing every catalog entry at every
    start position (the linear scan that `gazetteer_hits` indexes away)."""
    n = len(tokens)
    hits = [set() for _ in range(n)]
    lowered = [t.lower() for t in tokens]
    for slot_type, catalog in (gazetteers or {}).items():
        for entry in catalog.entries:
            m = len(entry.tokens)
            for i in range(n - m + 1):
                if tuple(lowered[i : i + m]) == entry.tokens:
                    for k in range(i, i + m):
                        hits[k].add(slot_type)
    return hits
