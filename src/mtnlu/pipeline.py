"""Staged experiment driver.

Wires the library into one reproducible run: translate an annotated source
corpus, project its labels onto the target tokens, filter the projections
(round-trip agreement, then per-domain score thresholds), post-process slot
values, train the taggers, and score them on a held-out test set.

Everything is driven by a JSON config plus one integer seed; two runs with
the same config and seed write bit-identical files.  Each stage records an
input/output/removal report; wall-clock durations are kept in memory only so
report files stay reproducible.
"""

from __future__ import annotations

import hashlib
import json
import time

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .corpus import (
    Catalog,
    Utterance,
    load_catalogs,
    load_corpus,
    save_corpus,
    serialize_utterance,
)
from .errors import ConfigError, MtnluError
from .filtering import (
    NO_TRANSLATION,
    FilterConfig,
    compute_domain_stats,
    roundtrip_filter,
    score_filter,
)
from .nlu import (
    CrfModel,
    MaxEntModel,
    TrainingConfig,
    predict,
    train_intent_classifier,
    train_slot_tagger,
)
from .postprocess import PostprocessConfig, combined_postprocess
from .semer import SemerReport, semer, write_semer_report
from .translate import (
    FileTranslator,
    PhraseTableModel,
    PhraseTableTranslator,
    ProjectionRejected,
    TranslationResult,
    Translator,
    load_phrase_table,
    load_translations,
    project_annotations,
    save_translations,
)

STAGES = (
    "translate",
    "project",
    "filter-semantic",
    "filter-score",
    "postprocess",
    "train",
    "evaluate",
)

# stages that consume forward translations
_NEEDS_TRANSLATIONS = ("project", "filter-semantic", "filter-score")
# stages that consume the annotated source corpus
_NEEDS_SOURCE = ("translate", "project", "filter-semantic", "filter-score",
                 "postprocess", "train")


class StageFailure(MtnluError):
    """A stage aborted; the run stops with a partial report."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        self.cause = cause
        super().__init__("stage %s failed: %s" % (stage, cause))


@dataclass(frozen=True)
class TranslatorSpec:
    """Where one translation direction comes from: a file or a decoder."""

    translations: str | None = None
    phrase_table: str | None = None

    @property
    def configured(self) -> bool:
        return self.translations is not None or self.phrase_table is not None

    def validate(self, name: str) -> None:
        if self.translations is not None and self.phrase_table is not None:
            raise ConfigError(
                "%s: give either a translations file or a phrase table, not both" % name
            )


@dataclass(frozen=True)
class PipelineConfig:
    out_dir: str
    seed: int = 0
    stages: tuple[str, ...] = STAGES
    source_corpus: str | None = None
    test_corpus: str | None = None
    source_language: str = "src"
    target_language: str = "tgt"
    forward: TranslatorSpec = TranslatorSpec()
    backward: TranslatorSpec = TranslatorSpec()
    weights: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    max_jump: int = 2
    beam_size: int = 100
    lm_alpha: float = 0.1
    filter: FilterConfig = FilterConfig()
    resample_slots: tuple[str, ...] = ()
    retain_original_slots: tuple[str, ...] = ()
    mix_probability: float = 0.5
    catalogs: tuple[str, ...] = ()
    source_catalogs: tuple[str, ...] = ()
    training: TrainingConfig = TrainingConfig()

    def __post_init__(self) -> None:
        _validate_stages(self.stages)
        self.forward.validate("forward")
        self.backward.validate("backward")
        if len(self.weights) != 4:
            raise ConfigError("weights must have 4 entries (tm, lm, reordering, word_penalty)")
        if "translate" in self.stages and not self.forward.configured:
            raise ConfigError("the translate stage needs a forward translations file or phrase table")
        needs_translations = set(self.stages) & set(_NEEDS_TRANSLATIONS)
        if needs_translations and "translate" not in self.stages \
                and self.forward.translations is None:
            raise ConfigError(
                "stages %s need translations: run the translate stage or configure "
                "a forward translations file" % sorted(needs_translations)
            )
        if "filter-semantic" in self.stages and not self.backward.configured:
            raise ConfigError("the filter-semantic stage needs a backward translations file or phrase table")
        if set(self.stages) & set(_NEEDS_SOURCE) and self.source_corpus is None:
            raise ConfigError("source_corpus is required for stages %s"
                              % sorted(set(self.stages) & set(_NEEDS_SOURCE)))
        if "evaluate" in self.stages and self.test_corpus is None:
            raise ConfigError("the evaluate stage needs a test_corpus")

    def effective(self) -> dict:
        """Everything that can change results, as plain JSON data.

        The output directory is deliberately excluded: where files land has
        no effect on their contents.
        """
        return {
            "seed": self.seed,
            "stages": list(self.stages),
            "source_corpus": self.source_corpus,
            "test_corpus": self.test_corpus,
            "source_language": self.source_language,
            "target_language": self.target_language,
            "translation": {
                "forward_translations": self.forward.translations,
                "forward_phrase_table": self.forward.phrase_table,
                "backward_translations": self.backward.translations,
                "backward_phrase_table": self.backward.phrase_table,
                "weights": list(self.weights),
                "max_jump": self.max_jump,
                "beam_size": self.beam_size,
                "lm_alpha": self.lm_alpha,
            },
            "filter": {
                "mode": self.filter.mode,
                "confidence_threshold": self.filter.confidence_threshold,
                "slot_comparison": self.filter.slot_comparison,
                "use_gold_labels": self.filter.use_gold_labels,
                "score_multiplier": self.filter.score_multiplier,
            },
            "postprocess": {
                "resample_slots": sorted(self.resample_slots),
                "retain_original_slots": sorted(self.retain_original_slots),
                "mix_probability": self.mix_probability,
            },
            "catalogs": list(self.catalogs),
            "source_catalogs": list(self.source_catalogs),
            "training": {
                "l2": self.training.l2,
                "max_iterations": self.training.max_iterations,
                "tolerance": self.training.tolerance,
            },
        }

    def fingerprint(self) -> str:
        payload = json.dumps(self.effective(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _validate_stages(stages: Sequence[str]) -> None:
    if not stages:
        raise ConfigError("stage list is empty")
    position = iter(STAGES)
    for stage in stages:
        if stage not in STAGES:
            raise ConfigError("unknown stage %r (choose from %s)" % (stage, ", ".join(STAGES)))
        for canonical in position:
            if canonical == stage:
                break
        else:
            raise ConfigError(
                "stages must be an in-order subsequence of: %s" % ", ".join(STAGES)
            )


def stage_seed(seed: int, stage: str) -> int:
    """Per-stage seed derived from the run seed; stable across platforms."""
    digest = hashlib.sha256(("%d|%s" % (seed, stage)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# --- config file parsing -----------------------------------------------------


def _check_keys(obj: Mapping, allowed: Sequence[str], where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError("unknown %s keys: %s" % (where, ", ".join(unknown)))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(obj: Mapping, key: str, default: int) -> int:
    value = obj.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError("%s must be an integer, got %s" % (key, json.dumps(value)))
    return value


def _number(obj: Mapping, key: str, default: float) -> float:
    value = obj.get(key, default)
    if not _is_number(value):
        raise ConfigError("%s must be a number, got %s" % (key, json.dumps(value)))
    return float(value)


def _weights(translation: Mapping) -> tuple:
    value = translation.get("weights", [1.0, 1.0, 1.0, 1.0])
    if not isinstance(value, list) or len(value) != 4 or not all(map(_is_number, value)):
        raise ConfigError(
            "weights must be a list of 4 numbers (tm, lm, reordering, word_penalty), got %s"
            % json.dumps(value)
        )
    return tuple(value)


def _resolve(base: Path, value, key: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError("%s must be a non-empty path string" % key)
    path = Path(value)
    if not path.is_absolute():
        path = base / path
    if not path.exists():
        raise ConfigError("%s: no such file: %s" % (key, path))
    return str(path)


def _resolve_opt(base: Path, obj: Mapping, key: str) -> str | None:
    value = obj.get(key)
    return None if value is None else _resolve(base, value, key)


def _resolve_list(base: Path, obj: Mapping, key: str) -> tuple[str, ...]:
    values = obj.get(key, [])
    if not isinstance(values, list):
        raise ConfigError("%s must be a list of paths" % key)
    return tuple(_resolve(base, v, key) for v in values)


def load_pipeline_config(
    path,
    seed: int | None = None,
    stages: Sequence[str] | None = None,
    out_dir: str | None = None,
) -> PipelineConfig:
    """Read a JSON config; optional arguments override file values.

    Relative paths inside the file are resolved against its directory.
    """
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config is not valid JSON: %s" % exc) from exc
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(
        obj,
        ["seed", "out_dir", "stages", "source_corpus", "test_corpus",
         "source_language", "target_language", "translation", "filter",
         "postprocess", "catalogs", "source_catalogs", "training"],
        "config",
    )
    base = path.resolve().parent

    translation = obj.get("translation", {})
    _check_keys(
        translation,
        ["forward_translations", "forward_phrase_table", "backward_translations",
         "backward_phrase_table", "weights", "max_jump", "beam_size", "lm_alpha"],
        "translation",
    )
    filter_obj = obj.get("filter", {})
    _check_keys(
        filter_obj,
        ["mode", "confidence_threshold", "slot_comparison", "use_gold_labels",
         "score_multiplier"],
        "filter",
    )
    post = obj.get("postprocess", {})
    _check_keys(
        post, ["resample_slots", "retain_original_slots", "mix_probability"],
        "postprocess",
    )
    training = obj.get("training", {})
    _check_keys(training, ["l2", "max_iterations", "tolerance"], "training")

    effective_out = out_dir if out_dir is not None else obj.get("out_dir")
    if effective_out is None:
        raise ConfigError("out_dir must be set in the config or with --out")
    if out_dir is None and not Path(effective_out).is_absolute():
        effective_out = str(base / effective_out)

    effective_stages = tuple(stages if stages is not None else obj.get("stages", STAGES))

    try:
        filter_config = FilterConfig(**filter_obj)
        training_config = TrainingConfig(**training)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc

    return PipelineConfig(
        out_dir=effective_out,
        seed=seed if seed is not None else _integer(obj, "seed", 0),
        stages=effective_stages,
        source_corpus=_resolve_opt(base, obj, "source_corpus"),
        test_corpus=_resolve_opt(base, obj, "test_corpus"),
        source_language=obj.get("source_language", "src"),
        target_language=obj.get("target_language", "tgt"),
        forward=TranslatorSpec(
            _resolve_opt(base, translation, "forward_translations"),
            _resolve_opt(base, translation, "forward_phrase_table"),
        ),
        backward=TranslatorSpec(
            _resolve_opt(base, translation, "backward_translations"),
            _resolve_opt(base, translation, "backward_phrase_table"),
        ),
        weights=_weights(translation),
        max_jump=_integer(translation, "max_jump", 2),
        beam_size=_integer(translation, "beam_size", 100),
        lm_alpha=_number(translation, "lm_alpha", 0.1),
        filter=filter_config,
        resample_slots=tuple(post.get("resample_slots", ())),
        retain_original_slots=tuple(post.get("retain_original_slots", ())),
        mix_probability=_number(post, "mix_probability", 0.5),
        catalogs=_resolve_list(base, obj, "catalogs"),
        source_catalogs=_resolve_list(base, obj, "source_catalogs"),
        training=training_config,
    )


# --- run state and reports ---------------------------------------------------


@dataclass
class StageReport:
    stage: str
    input_count: int
    output_count: int
    removed: dict[str, int]
    duration_seconds: float
    fingerprint: str


@dataclass
class PipelineResult:
    corpus: list[Utterance]
    crf: CrfModel | None
    maxent: MaxEntModel | None
    semer_report: SemerReport | None
    stage_reports: list[StageReport]


@dataclass
class _State:
    source: list[Utterance]
    working: list[Utterance]
    translations: dict[str, TranslationResult]
    test: list[Utterance]
    catalogs: dict[str, Catalog]
    source_catalogs: dict[str, Catalog]
    forward: Translator | None
    backward: Translator | None
    crf: CrfModel | None = None
    maxent: MaxEntModel | None = None
    semer_report: SemerReport | None = None


def _histogram(removed: Sequence[tuple[str, str]]) -> dict[str, int]:
    out: dict[str, int] = {}
    for _, reason in removed:
        out[reason] = out.get(reason, 0) + 1
    return dict(sorted(out.items()))


def _write_removed(path: Path, removed: Sequence[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for uid, reason in removed:
            fh.write("%s\t%s\n" % (uid, reason))


def _format_removed(histogram: Mapping[str, int]) -> str:
    if not histogram:
        return "-"
    return ",".join("%s=%d" % (k, v) for k, v in sorted(histogram.items()))


def _write_stage_reports(
    path: Path, reports: Sequence[StageReport], failed: tuple[str, BaseException] | None
) -> None:
    lines = ["stage\tinput\toutput\tremoved\tfingerprint"]
    for r in reports:
        lines.append(
            "%s\t%d\t%d\t%s\t%s"
            % (r.stage, r.input_count, r.output_count,
               _format_removed(r.removed), r.fingerprint)
        )
    if failed is not None:
        message = " ".join(str(failed[1]).split())
        lines.append("# failed\t%s\t%s" % (failed[0], message))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# --- translator construction --------------------------------------------------


def _build_translator(config: PipelineConfig, spec: TranslatorSpec) -> Translator | None:
    if spec.translations is not None:
        return FileTranslator(load_translations(spec.translations))
    if spec.phrase_table is not None:
        model = PhraseTableModel.from_pairs(
            load_phrase_table(spec.phrase_table),
            lm_alpha=config.lm_alpha,
            weights=tuple(config.weights),
            max_jump=config.max_jump,
            beam_size=config.beam_size,
        )
        return PhraseTableTranslator(model)
    return None


# --- stages -------------------------------------------------------------------


def _stage_translate(config: PipelineConfig, state: _State, out: Path):
    results: dict[str, TranslationResult] = {}
    removed = []
    for u in state.working:
        result = state.forward.translate(u.tokens, u.id)
        if result is None:
            removed.append((u.id, NO_TRANSLATION))
        else:
            results[u.id] = result
    state.translations = results
    state.working = [u for u in state.working if u.id in results]
    save_translations(
        {uid: results[uid] for uid in sorted(results)}, out / "translations.tsv"
    )
    return removed


def _stage_project(config: PipelineConfig, state: _State, out: Path):
    kept, removed = [], []
    for u in state.working:
        result = state.translations.get(u.id)
        if result is None:
            removed.append((u.id, NO_TRANSLATION))
            continue
        try:
            kept.append(project_annotations(u, result, config.target_language))
        except ProjectionRejected as exc:
            removed.append((u.id, exc.reason))
    state.working = kept
    save_corpus(kept, out / "corpus_projected.tsv")
    _write_removed(out / "removed_project.tsv", removed)
    return removed


def _stage_filter_semantic(config: PipelineConfig, state: _State, out: Path):
    crf = train_slot_tagger(state.source, config.training, state.source_catalogs)
    maxent = train_intent_classifier(state.source, config.training, state.source_catalogs)
    working_ids = {u.id for u in state.working}
    survivors = [u for u in state.source if u.id in working_ids]
    outcome = roundtrip_filter(
        survivors,
        FileTranslator(state.translations),
        state.backward,
        (crf, maxent),
        config.filter,
        target_language=config.target_language,
    )
    state.working = outcome.kept
    save_corpus(outcome.kept, out / "corpus_semantic.tsv")
    _write_removed(out / "removed_semantic.tsv", outcome.removed)
    return outcome.removed


def _stage_filter_score(config: PipelineConfig, state: _State, out: Path):
    stats = compute_domain_stats(state.working, state.translations)
    with open(out / "score_stats.tsv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("domain\tmean\tstdev\tcount\n")
        for domain in sorted(stats):
            st = stats[domain]
            fh.write("%s\t%r\t%r\t%d\n" % (domain, st.mean, st.stdev, st.count))
    outcome = score_filter(
        state.working, state.translations, stats, config.filter.score_multiplier
    )
    state.working = outcome.kept
    save_corpus(outcome.kept, out / "corpus_scored.tsv")
    _write_removed(out / "removed_score.tsv", outcome.removed)
    return outcome.removed


def _stage_postprocess(config: PipelineConfig, state: _State, out: Path):
    pp_config = PostprocessConfig(
        resample_slots=frozenset(config.resample_slots),
        retain_original_slots=frozenset(config.retain_original_slots),
        mix_probability=config.mix_probability,
        seed=stage_seed(config.seed, "postprocess"),
    )
    stats: dict[str, int] = {}
    state.working = combined_postprocess(
        state.working, state.source, state.catalogs, pp_config, stats
    )
    save_corpus(state.working, out / "corpus_postprocessed.tsv")
    with open(out / "postprocess_stats.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(stats):
            fh.write("%s\t%d\n" % (key, stats[key]))
    return []


def _stage_train(config: PipelineConfig, state: _State, out: Path):
    state.crf = train_slot_tagger(state.working, config.training, state.catalogs)
    state.maxent = train_intent_classifier(state.working, config.training, state.catalogs)
    state.crf.save(out / "crf_model.json")
    state.maxent.save(out / "intent_model.json")
    return []


def _stage_evaluate(config: PipelineConfig, state: _State, out: Path):
    crf, maxent = state.crf, state.maxent
    if crf is None or maxent is None:
        crf_path = out / "crf_model.json"
        maxent_path = out / "intent_model.json"
        if not crf_path.exists() or not maxent_path.exists():
            raise ConfigError(
                "no trained models: run the train stage first or place "
                "crf_model.json and intent_model.json in the output directory"
            )
        crf = CrfModel.load(crf_path)
        maxent = MaxEntModel.load(maxent_path)
    hypotheses = {u.id: predict(crf, maxent, u.tokens) for u in state.test}
    report = semer(state.test, hypotheses)
    state.semer_report = report
    write_semer_report(report, out / "semer_report.tsv")
    with open(out / "hypotheses.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for u in state.test:
            hyp = hypotheses[u.id]
            rendered = serialize_utterance(
                Utterance(u.id, u.language, u.domain, hyp.intent, u.tokens, hyp.slots)
            )
            fh.write("%s\t%.6f\n" % (rendered, hyp.intent_confidence))
    return []


_HANDLERS: dict[str, Callable[[PipelineConfig, _State, Path], list]] = {
    "translate": _stage_translate,
    "project": _stage_project,
    "filter-semantic": _stage_filter_semantic,
    "filter-score": _stage_filter_score,
    "postprocess": _stage_postprocess,
    "train": _stage_train,
    "evaluate": _stage_evaluate,
}


def _setup(config: PipelineConfig) -> _State:
    source: list[Utterance] = []
    if set(config.stages) & set(_NEEDS_SOURCE):
        source = load_corpus(config.source_corpus, config.source_language)
    test: list[Utterance] = []
    if "evaluate" in config.stages:
        test = load_corpus(config.test_corpus, config.target_language)
    catalogs = load_catalogs(config.catalogs) if config.catalogs else {}
    source_catalogs = (
        load_catalogs(config.source_catalogs) if config.source_catalogs else {}
    )
    if "postprocess" in config.stages:
        missing = sorted(set(config.resample_slots) - set(catalogs))
        if missing:
            raise ConfigError("no catalog for resampled slot types: %s" % ", ".join(missing))
    forward = _build_translator(config, config.forward)
    backward = _build_translator(config, config.backward)
    translations: dict[str, TranslationResult] = {}
    if "translate" not in config.stages and config.forward.translations is not None:
        translations = load_translations(config.forward.translations)
    return _State(
        source=source,
        working=list(source),
        translations=translations,
        test=test,
        catalogs=catalogs,
        source_catalogs=source_catalogs,
        forward=forward,
        backward=backward,
    )


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute the configured stages; see the module docstring.

    Input problems raise ConfigError/FormatError before any stage runs; an
    error inside a stage raises StageFailure after writing the reports
    collected so far.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fingerprint = config.fingerprint()
    payload = json.dumps(config.effective(), sort_keys=True, indent=2)
    with open(out / "effective_config.json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload + "\n")

    state = _setup(config)
    reports: list[StageReport] = []
    failed: tuple[str, BaseException] | None = None
    for stage in config.stages:
        input_count = len(state.test) if stage == "evaluate" else len(state.working)
        started = time.perf_counter()
        try:
            removed = _HANDLERS[stage](config, state, out)
        except Exception as exc:  # noqa: BLE001 - reported as a stage failure
            failed = (stage, exc)
            break
        reports.append(
            StageReport(
                stage=stage,
                input_count=input_count,
                output_count=len(state.test) if stage == "evaluate" else len(state.working),
                removed=_histogram(removed),
                duration_seconds=time.perf_counter() - started,
                fingerprint=fingerprint,
            )
        )
    _write_stage_reports(out / "stage_reports.tsv", reports, failed)
    if failed is not None:
        raise StageFailure(failed[0], failed[1]) from failed[1]
    return PipelineResult(
        corpus=state.working,
        crf=state.crf,
        maxent=state.maxent,
        semer_report=state.semer_report,
        stage_reports=reports,
    )
