"""Phrase-based translation and annotation projection.

Translations can come from a built-in log-linear phrase decoder or from a
sidecar file produced by an external system (`load_translations`).  Either
way every translation carries token-level alignments and a four-part score
(translation model, language model, reordering, word penalty) so that
annotations can be projected and score-based filtering applied downstream.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Protocol, Sequence

from .corpus import Utterance, make_span, number, read_records, split_tokens, write_lines
from .errors import MtnluError

log = logging.getLogger(__name__)

# Rejection reasons raised while projecting annotations.
UNALIGNED_SLOT = "UNALIGNED_SLOT"
OVERLAP = "OVERLAP"


class ProjectionRejected(MtnluError):
    """A slot could not be projected; carries a machine-readable reason."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__("%s%s" % (reason, " (%s)" % detail if detail else ""))


@dataclass(frozen=True, slots=True)
class TranslationScores:
    """Score components of one translation plus their weighted total."""

    tm: float
    lm: float
    reordering: float
    word_penalty: float
    weighted_total: float

    def components(self) -> tuple[float, float, float, float]:
        return (self.tm, self.lm, self.reordering, self.word_penalty)


def combined_score(components: Sequence[float], weights: Sequence[float]) -> float:
    """Dot product of score components with their weights, added left to
    right (built-in `sum` compensates its rounding from Python 3.12 on)."""
    if len(components) != len(weights):
        raise ValueError(
            "got %d components but %d weights" % (len(components), len(weights))
        )
    total = 0.0
    for c, w in zip(components, weights):
        total += c * w
    return total


@dataclass(frozen=True, slots=True)
class TranslationResult:
    """Target tokens plus source-to-target word alignment and scores.  The
    translation of an utterance is stored under the utterance's id.

    Alignment pairs are (source index, target index).  Target indices are
    validated here; source indices against the source utterance by
    `check_alignment`.
    """

    target_tokens: tuple[str, ...]
    alignment: frozenset[tuple[int, int]]
    scores: TranslationScores

    def __post_init__(self):
        object.__setattr__(self, "target_tokens", tuple(self.target_tokens))
        object.__setattr__(self, "alignment", frozenset(self.alignment))
        if not self.target_tokens:
            raise ValueError("translation has no target tokens")
        for s, t in self.alignment:
            if s < 0 or t < 0 or t >= len(self.target_tokens):
                raise ValueError("alignment pair %d-%d out of range" % (s, t))


class BigramLM:
    """Bigram language model with additive smoothing, scored in log space."""

    BOS = "<s>"
    EOS = "</s>"

    def __init__(self, sentences: Iterable[Sequence[str]], alpha: float = 0.1):
        if not (alpha > 0):
            raise ValueError("alpha must be positive")
        self.alpha = alpha
        self._bigrams: Counter = Counter()
        self._contexts: Counter = Counter()
        vocab: set[str] = {self.EOS}
        for sent in sentences:
            prev = self.BOS
            for w in tuple(sent) + (self.EOS,):
                self._bigrams[(prev, w)] += 1
                self._contexts[prev] += 1
                if w != self.EOS:
                    vocab.add(w)
                prev = w
        self._vocab_size = len(vocab)

    def logprob(self, prev: str, word: str) -> float:
        num = self._bigrams[(prev, word)] + self.alpha
        den = self._contexts[prev] + self.alpha * self._vocab_size
        return math.log(num / den)

    def score(self, tokens: Sequence[str]) -> float:
        """Log probability of the token sequence framed by <s> ... </s>."""
        total = 0.0
        prev = self.BOS
        for w in tuple(tokens) + (self.EOS,):
            total += self.logprob(prev, w)
            prev = w
        return total


PhraseOptions = tuple[tuple[tuple[str, ...], float], ...]

# translation-model score of a source token that no phrase covers, copied as it is
OOV_PENALTY = -10.0


@dataclass
class PhraseTableModel:
    """Everything the decoder needs: phrases, LM, weights, search limits.

    `weights` are (tm, lm, reordering, word_penalty).  Treated as immutable
    once built; decoding never mutates the model.
    """

    phrases: dict[tuple[str, ...], PhraseOptions]
    lm: BigramLM
    weights: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    max_jump: int = 2
    beam_size: int = 100

    def __post_init__(self):
        if len(self.weights) != 4:
            raise ValueError("weights must be (tm, lm, reordering, word_penalty)")
        if self.max_jump < 0 or self.beam_size < 1:
            raise ValueError("max_jump must be >= 0 and beam_size >= 1")

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[tuple[Sequence[str], Sequence[str], float]],
        lm_sentences: Iterable[Sequence[str]] | None = None,
        lm_alpha: float = 0.1,
        **kwargs,
    ) -> "PhraseTableModel":
        """Group (source, target, log score) triples into a model.

        When no LM corpus is given, the LM is trained on the target sides.
        """
        phrases: dict[tuple[str, ...], list[tuple[tuple[str, ...], float]]] = {}
        targets: list[tuple[str, ...]] = []
        for src, tgt, score in pairs:
            src_t, tgt_t = tuple(src), tuple(tgt)
            if not src_t or not tgt_t:
                raise ValueError("phrase pair sides must be non-empty")
            phrases.setdefault(src_t, []).append((tgt_t, score))
            targets.append(tgt_t)
        lm = BigramLM(lm_sentences if lm_sentences is not None else targets, lm_alpha)
        return cls({k: tuple(v) for k, v in phrases.items()}, lm, **kwargs)


def load_phrase_table(path) -> list[tuple[tuple[str, ...], tuple[str, ...], float]]:
    """Read ``src ||| tgt ||| logscore`` lines."""
    return read_records(path, _phrase_pair, (3,), sep="|||")


def _phrase_pair(src: str, tgt: str, score: str) -> tuple[tuple[str, ...], tuple[str, ...], float]:
    src_t, tgt_t = split_tokens(src), split_tokens(tgt)
    if not src_t or not tgt_t:
        raise ValueError("empty phrase side")
    return src_t, tgt_t, number(score.strip(), "score")


# --- decoding ---------------------------------------------------------------
#
# Beam search over phrase segmentations.  A hypothesis covers a subset of
# source positions (bitmask); expansions pick an uncovered contiguous span
# whose distance from the previous phrase end is at most max_jump, and
# that leaves the leftmost uncovered position within max_jump of its end.
# Each expansion is scored once and kept only if it beats the hypothesis
# already kept under its key.  Partial hypotheses are keyed by (coverage,
# previous end, last target token, target length); complete ones, whose
# score includes the `</s>` term, all share the key None in the last stack.
# One ordering serves recombination and the beam: the higher score wins and
# an exact tie prefers the lexicographically smaller target (on a full tie
# the first one generated stays), which makes decoding a pure function of
# the input.


class _Hyp:
    __slots__ = ("coverage", "prev_end", "target", "tm", "lm", "reord", "score", "phrases")

    def __init__(self, coverage, prev_end, target, tm, lm, reord, score, phrases):
        self.coverage = coverage
        self.prev_end = prev_end
        self.target = target
        self.tm = tm
        self.lm = lm
        self.reord = reord
        self.score = score  # partial weighted score used for pruning
        self.phrases = phrases  # tuple of (src_start, src_end, tgt_start, tgt_end)


def _span_options(tokens: Sequence[str], model: PhraseTableModel):
    """Translation options per source span, adding identity pairs for OOVs."""
    n = len(tokens)
    options = {}
    for i in range(n):
        for j in range(i + 1, n + 1):
            src = tuple(tokens[i:j])
            opts = model.phrases.get(src)
            if opts:
                options[(i, j)] = opts
            elif j == i + 1:
                options[(i, j)] = (((tokens[i],), OOV_PENALTY),)
    return options


def decode(tokens: Sequence[str], model: PhraseTableModel) -> TranslationResult:
    """Best-scoring translation of `tokens` under the model.

    A phrase is placed only when its start is within `max_jump` of the
    previous phrase end and, unless it completes the sentence, the leftmost
    uncovered position stays within `max_jump` of its own end -- the usual
    distortion-limit check of phrase-based decoders.  Every hypothesis in
    the beam can then still be completed one word at a time, so pruning
    never leaves only dead ends.  The check also excludes orders that come
    back to a gap in several short leftward jumps, such as reversing three
    words one by one at `max_jump` 2.

    Raises ValueError on empty input.
    """
    tokens = tuple(tokens)
    if not tokens:
        raise ValueError("cannot decode an empty token sequence")
    n = len(tokens)
    options = _span_options(tokens, model)
    w_tm, w_lm, w_reord, w_wp = model.weights
    full = (1 << n) - 1

    start = _Hyp(0, 0, (), 0.0, 0.0, 0.0, 0.0, ())
    stacks: list[dict] = [dict() for _ in range(n + 1)]
    stacks[0][(0, 0, BigramLM.BOS, 0)] = start

    for covered in range(n):
        beam = sorted(
            stacks[covered].values(), key=lambda h: (-h.score, h.target)
        )[: model.beam_size]
        for hyp in beam:
            last = hyp.target[-1] if hyp.target else BigramLM.BOS
            for (i, j), opts in options.items():
                span_bits = ((1 << (j - i)) - 1) << i
                if hyp.coverage & span_bits:
                    continue
                jump = abs(i - hyp.prev_end)
                if jump > model.max_jump:
                    continue
                coverage = hyp.coverage | span_bits
                if coverage != full:
                    gap = (~coverage & (coverage + 1)).bit_length() - 1
                    if abs(gap - j) > model.max_jump:
                        continue
                stack = stacks[covered + j - i]
                reord = hyp.reord - jump
                for tgt, tm_score in opts:
                    lm_delta = 0.0
                    prev = last
                    for w in tgt:
                        lm_delta += model.lm.logprob(prev, w)
                        prev = w
                    tm = hyp.tm + tm_score
                    lm = hyp.lm + lm_delta
                    length = len(hyp.target) + len(tgt)
                    key = (coverage, j, prev, length) if coverage != full else None
                    if key is None:
                        lm += model.lm.logprob(prev, BigramLM.EOS)
                    score = w_tm * tm + w_lm * lm + w_reord * reord + w_wp * -length
                    kept = stack.get(key)
                    if (kept is None or score > kept.score
                            or (score == kept.score and hyp.target + tgt < kept.target)):
                        phrase = (i, j, len(hyp.target), length)
                        stack[key] = _Hyp(coverage, j, hyp.target + tgt, tm, lm, reord, score,
                                          hyp.phrases + (phrase,))

    complete = stacks[n].get(None)
    if complete is None:
        raise ValueError("no complete hypothesis for %r" % (tokens,))

    # The search adds tm and reordering phrase by phrase, left to right; the
    # LM is rescored whole, because the search groups its terms by phrase.
    wp = -float(len(complete.target))
    components = (complete.tm, model.lm.score(complete.target), complete.reord, wp)
    scores = TranslationScores(*components, combined_score(components, model.weights))
    alignment = frozenset(
        (s, t)
        for i, j, k, l in complete.phrases
        for s in range(i, j)
        for t in range(k, l)
    )
    return TranslationResult(complete.target, alignment, scores)


# --- projection -------------------------------------------------------------


def check_alignment(source: Utterance, result: TranslationResult) -> None:
    """ValueError unless every alignment pair of `result` points into `source`."""
    for s, _ in result.alignment:
        if s >= len(source.tokens):
            raise ValueError("alignment source index %d out of range for %s" % (s, source.id))


def project_annotations(source: Utterance, result: TranslationResult) -> Utterance:
    """Carry intent, domain, and slots from `source` onto the translation.

    Each slot maps to the smallest contiguous target range covering all
    target positions aligned to the slot's source span.  Raises
    ProjectionRejected(UNALIGNED_SLOT) when a slot has no aligned target
    token and ProjectionRejected(OVERLAP) when two projected spans collide.
    """
    check_alignment(source, result)
    projected = []
    for slot in source.slots:
        hit = [t for s, t in result.alignment if slot.start <= s < slot.end]
        if not hit:
            raise ProjectionRejected(UNALIGNED_SLOT, slot.slot_type)
        projected.append((min(hit), max(hit) + 1, slot.slot_type))
    projected.sort()
    prev_end = 0
    spans = []
    for start, end, slot_type in projected:
        if start < prev_end:
            raise ProjectionRejected(OVERLAP, slot_type)
        spans.append(make_span(result.target_tokens, slot_type, start, end))
        prev_end = end
    return Utterance(source.id, source.domain, source.intent, result.target_tokens,
                     tuple(spans))


# --- translation files ------------------------------------------------------


def load_translations(path) -> dict[str, TranslationResult]:
    """Read a translations file into a map keyed by source id.

    Line format (tab-separated): id, target tokens, alignment pairs such as
    ``0-0 1-2``, then tm, lm, reordering, word penalty, and total scores.
    Duplicate ids keep the last line and are logged.
    """
    records = read_records(path, _translation, (8,))
    results = dict(records)
    if len(results) < len(records):
        log.warning("%s: %d duplicate translation id(s); kept the last",
                    path, len(records) - len(results))
    return results


def _translation(uid: str, target: str, alignment: str,
                 *scores: str) -> tuple[str, TranslationResult]:
    pairs = frozenset(number(chunk, "alignment pair", _alignment_pair)
                      for chunk in alignment.split())
    return uid.strip(), TranslationResult(
        split_tokens(target), pairs,
        TranslationScores(*(number(s, "score field") for s in scores)))


def _alignment_pair(chunk: str) -> tuple[int, int]:
    s_str, dash, t_str = chunk.partition("-")
    if not dash:
        raise ValueError
    return int(s_str), int(t_str)


def save_translations(results: Mapping[str, TranslationResult], path) -> None:
    """Inverse of `load_translations`; alignment pairs are written sorted."""
    write_lines(path, (
        "\t".join(
            [
                uid,
                " ".join(r.target_tokens),
                " ".join("%d-%d" % p for p in sorted(r.alignment)),
                repr(r.scores.tm),
                repr(r.scores.lm),
                repr(r.scores.reordering),
                repr(r.scores.word_penalty),
                repr(r.scores.weighted_total),
            ]
        )
        for uid, r in results.items()
    ))


# --- translator interface ---------------------------------------------------


class Translator(Protocol):
    def translate(self, tokens: Sequence[str], source_id: str) -> TranslationResult | None:
        """Translate tokens; None means no translation is available."""


class FileTranslator:
    """Serves pre-computed translations keyed by utterance id."""

    def __init__(self, results: Mapping[str, TranslationResult]):
        self._results = dict(results)

    def translate(self, tokens, source_id):
        return self._results.get(source_id)


class PhraseTableTranslator:
    """Runs the built-in decoder on demand."""

    def __init__(self, model: PhraseTableModel):
        self._model = model

    def translate(self, tokens, source_id):
        return decode(tokens, self._model)
