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
import sys
import time

from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, NewType, Sequence, get_args, get_origin, get_type_hints

from .corpus import (
    Catalog,
    Utterance,
    checked,
    load_catalogs,
    load_corpus,
    read_json,
    save_corpus,
    serialize_utterance,
    text_lines,
    write_lines,
)
from .errors import ConfigError, FormatError, MtnluError
from .filtering import (
    MODE_INTENT_SLOTS,
    NO_TRANSLATION,
    FilterConfig,
    compute_domain_stats,
    removal_counts,
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
from .postprocess import PostprocessConfig, check_resample_catalogs, combined_postprocess
from .semer import SemerReport, semer, write_semer_report
from .translate import (
    FileTranslator,
    PhraseTableModel,
    PhraseTableTranslator,
    ProjectionRejected,
    TranslationResult,
    Translator,
    check_alignment,
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

# what each stage reads, and what a stage makes for the stages after it in
# the same run; a run reads the rest from files (see `_file_inputs`)
_READS = {
    "translate": {"source", "forward"},
    "project": {"source", "translations"},
    "filter-semantic": {"source", "source_catalogs", "backward", "translations"},
    "filter-score": {"source", "translations"},
    "postprocess": {"source", "catalogs"},
    "train": {"source", "catalogs"},
    "evaluate": {"test", "models"},
}
_MAKES = {"translate": "translations", "train": "models"}


def _file_inputs(stages: Sequence[str]) -> dict[str, list[str]]:
    """Each input that a run of `stages` reads from files, with the stages
    that read it: what they read less what an earlier stage makes."""
    inputs, made = {}, set()
    for stage in stages:
        for what in _READS[stage] - made:
            inputs.setdefault(what, []).append(stage)
        made.add(_MAKES.get(stage))
    return inputs


class StageFailure(MtnluError):
    """A stage aborted; the run stops with a partial report."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        self.cause = cause
        super().__init__("stage %s failed: %s" % (stage, cause))


InputPath = NewType("InputPath", str)
"""A config value naming an input file: resolved against the config file's
directory, and it must exist."""


@dataclass(frozen=True)
class TranslationConfig:
    """The `translation` section: where each direction comes from (a
    translations file or a phrase table for the decoder, not both) and the
    decoder settings."""

    forward_translations: InputPath | None = None
    forward_phrase_table: InputPath | None = None
    backward_translations: InputPath | None = None
    backward_phrase_table: InputPath | None = None
    weights: tuple[float, float, float, float] = field(
        default=(1.0, 1.0, 1.0, 1.0),
        metadata={"items": "tm, lm, reordering, word_penalty"},
    )
    max_jump: int = 2
    beam_size: int = 100
    lm_alpha: float = 0.1

    def __post_init__(self) -> None:
        for name, translations, phrase_table in (
            ("forward", self.forward_translations, self.forward_phrase_table),
            ("backward", self.backward_translations, self.backward_phrase_table),
        ):
            if translations is not None and phrase_table is not None:
                raise ConfigError(
                    "%s: give either a translations file or a phrase table, not both" % name
                )


@dataclass(frozen=True)
class PipelineConfig:
    """The config file as a tree of frozen dataclasses, one per JSON object.

    The field annotations are the schema: `load_pipeline_config` parses and
    type-checks the file against them and `effective` serialises them, so a
    new field needs no other edit.  Field metadata may set ``"config":
    False`` (not a config key) or ``"items"`` (what the entries of a
    fixed-length list are, for its error message).
    """

    out_dir: str
    seed: int = 0
    stages: tuple[str, ...] = STAGES
    source_corpus: InputPath | None = None
    test_corpus: InputPath | None = None
    source_language: str = "src"
    target_language: str = "tgt"
    translation: TranslationConfig = TranslationConfig()
    filter: FilterConfig = FilterConfig()
    postprocess: PostprocessConfig = PostprocessConfig()
    catalogs: tuple[InputPath, ...] = ()
    source_catalogs: tuple[InputPath, ...] = ()
    training: TrainingConfig = TrainingConfig()

    def __post_init__(self) -> None:
        _validate_stages(self.stages)
        inputs, t = _file_inputs(self.stages), self.translation
        for what, given, needed in (
            ("forward", t.forward_translations or t.forward_phrase_table,
             "a forward translations file or phrase table"),
            ("translations", t.forward_translations,
             "translations: run the translate stage or configure a forward translations file"),
            ("backward", t.backward_translations or t.backward_phrase_table,
             "a backward translations file or phrase table"),
            ("source", self.source_corpus, "a source_corpus"),
            ("test", self.test_corpus, "a test_corpus"),
        ):
            if what in inputs and given is None:
                raise ConfigError("stages %s need %s" % (sorted(inputs[what]), needed))

    def effective(self) -> dict:
        """Everything that can change results, as plain JSON data.

        The output directory is deliberately excluded: where files land has
        no effect on their contents.
        """
        effective = _to_json(self)
        del effective["out_dir"]
        return effective

    def fingerprint(self) -> str:
        payload = json.dumps(self.effective(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _validate_stages(stages: Sequence[str]) -> None:
    if not stages:
        raise ConfigError("stage list is empty")
    for stage in stages:
        if stage not in STAGES:
            raise ConfigError("unknown stage %r (choose from %s)" % (stage, ", ".join(STAGES)))
    if list(stages) != sorted(set(stages), key=STAGES.index):
        raise ConfigError("stages must be an in-order subsequence of: %s" % ", ".join(STAGES))


def stage_seed(seed: int, stage: str) -> int:
    """Per-stage seed derived from the run seed; stable across platforms."""
    digest = hashlib.sha256(("%d|%s" % (seed, stage)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# --- the config schema: parsing and serialisation ------------------------------

# (singular, plural) of each leaf type, for error messages
_KINDS = {
    bool: ("true or false", "booleans"),
    int: ("an integer", "integers"),
    float: ("a number", "numbers"),
    str: ("a string", "strings"),
    InputPath: ("a non-empty path string", "paths"),
}


def _config_fields(cls) -> list:
    return [f for f in fields(cls) if f.metadata.get("config", True)]


def _is_kind(kind, value) -> bool:
    if kind is bool:
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if kind is float:  # finite; an int beyond the float range is not finite either
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if kind is InputPath:
        return isinstance(value, str) and value != ""
    return isinstance(value, kind)


def _leaf(kind, value, key: str, base: Path):
    if kind is float:
        return float(value)
    if kind is InputPath:
        path = base / value
        if not path.exists():
            raise ConfigError("%s: no such file: %s" % (key, path))
        return str(path)
    return value


def _parse(hint, value, key: str, base: Path, items: str | None = None):
    """`value` checked against the annotation `hint` and converted to it."""
    if is_dataclass(hint):
        return _parse_section(hint, value, key, base)
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
        raise ConfigError("%s must be %s%s, got %s"
                          % (key, expected, " or null" if optional else "", json.dumps(value)))
    if container is None:
        return _leaf(hint, value, key, base)
    return container(_leaf(args[0], v, key, base) for v in value)


def _parse_section(cls, obj, where: str, base: Path):
    """An instance of the config dataclass `cls` from the JSON object `obj`;
    absent keys take the field defaults."""
    if not isinstance(obj, dict):
        raise ConfigError("%s must be a JSON object, got %s" % (where, json.dumps(obj)))
    schema = _config_fields(cls)
    unknown = sorted(set(obj) - {f.name for f in schema})
    if unknown:
        raise ConfigError("unknown %s keys: %s" % (where, ", ".join(unknown)))
    hints = get_type_hints(cls)
    return cls(**{
        f.name: _parse(hints[f.name], obj[f.name], f.name, base, f.metadata.get("items"))
        for f in schema if f.name in obj
    })


def _to_json(config) -> dict:
    """The config fields of a config dataclass as JSON data: sections as
    objects, tuples as lists and sets as sorted lists."""
    out = {}
    for f in _config_fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            value = _to_json(value)
        elif isinstance(value, (tuple, list)):
            value = list(value)
        elif isinstance(value, (set, frozenset)):
            value = sorted(value)
        out[f.name] = value
    return out


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
        obj = read_json(path, "config is not valid JSON")
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc) from exc
    except FormatError as exc:
        raise ConfigError(str(exc)) from exc
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    base = path.resolve().parent
    if out_dir is None and isinstance(obj.get("out_dir"), str):
        obj["out_dir"] = str(base / obj["out_dir"])
    for key, value in (("seed", seed), ("stages", stages), ("out_dir", out_dir)):
        if value is not None:
            obj[key] = value
    if obj.get("out_dir") is None:
        raise ConfigError("out_dir must be set in the config or with --out")
    return _parse_section(PipelineConfig, obj, "config", base)


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
    """What the stages read (see `_READS`), pass on and make."""

    source: list[Utterance] = field(default_factory=list)
    working: list[Utterance] = field(default_factory=list)
    translations: dict[str, TranslationResult] = field(default_factory=dict)
    test: list[Utterance] = field(default_factory=list)
    catalogs: dict[str, Catalog] = field(default_factory=dict)
    source_catalogs: dict[str, Catalog] = field(default_factory=dict)
    forward: Translator | None = None
    backward: Translator | None = None
    crf: CrfModel | None = None
    maxent: MaxEntModel | None = None
    semer_report: SemerReport | None = None


def _write_removed(path: Path, removed: Sequence[tuple[str, str]]) -> None:
    write_lines(path, ("%s\t%s" % r for r in removed))


def format_removed(counts: Mapping[str, int]) -> str:
    """Removal counts as `reason=n,...` in reason order, or "-" for none."""
    if not counts:
        return "-"
    return ",".join("%s=%d" % (k, v) for k, v in sorted(counts.items()))


def _read_stage_reports(path: Path) -> list[str]:
    """The rows, `# failed` rows included, of the stage report an earlier run
    wrote to `path`; none if there is no such file."""
    if not path.exists():
        return []
    return [line.rstrip("\n") for _, line in text_lines(path)[1:]]


def _write_stage_reports(
    path: Path,
    reports: Sequence[StageReport],
    failed: tuple[str, BaseException] | None,
    earlier: Sequence[str],
) -> None:
    """One row per stage in STAGES order, then the `# failed` lines.

    The `earlier` rows and failures (see `_read_stage_reports`) are kept for
    the stages this run did not execute, so a run of some stages does not
    erase the record of the others; each row keeps its own fingerprint.
    """
    rows = {
        r.stage: "%s\t%d\t%d\t%s\t%s" % (r.stage, r.input_count, r.output_count,
                                         format_removed(r.removed), r.fingerprint)
        for r in reports
    }
    failures = {}
    if failed is not None:
        failures[failed[0]] = "# failed\t%s\t%s" % (failed[0], " ".join(str(failed[1]).split()))
    executed = set(rows) | set(failures)
    for line in earlier:
        cells = line.split("\t")
        failure = cells[0] == "# failed" and len(cells) > 1
        stage = cells[1] if failure else cells[0]
        if stage in STAGES and stage not in executed:
            (failures if failure else rows)[stage] = line
    lines = ["stage\tinput\toutput\tremoved\tfingerprint"]
    lines += [rows[s] for s in STAGES if s in rows]
    lines += [failures[s] for s in STAGES if s in failures]
    write_lines(path, lines)


# --- translator construction --------------------------------------------------


def _build_translator(t: TranslationConfig, phrase_table: str | None,
                      translations: Callable[[], dict]) -> Translator:
    """A decoder on `phrase_table`, or else the translations `translations()` loads."""
    if phrase_table is None:
        return FileTranslator(translations())
    model = PhraseTableModel.from_pairs(
        load_phrase_table(phrase_table),
        lm_alpha=t.lm_alpha,
        weights=t.weights,
        max_jump=t.max_jump,
        beam_size=t.beam_size,
    )
    return PhraseTableTranslator(model)


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
    crf = None  # only the INTENT_SLOTS mode reads source slots
    if config.filter.mode == MODE_INTENT_SLOTS:
        crf = train_slot_tagger(state.source, config.training, state.source_catalogs,
                                "CRF slot tagger (stage filter-semantic)")
    maxent = train_intent_classifier(state.source, config.training, state.source_catalogs,
                                     "MaxEnt intent classifier (stage filter-semantic)")
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
    write_lines(out / "score_stats.tsv", ["domain\tmean\tstdev\tcount"] + [
        "%s\t%r\t%r\t%d" % (domain, st.mean, st.stdev, st.count)
        for domain, st in sorted(stats.items())
    ])
    outcome = score_filter(
        state.working, state.translations, stats, config.filter.score_multiplier
    )
    state.working = outcome.kept
    save_corpus(outcome.kept, out / "corpus_scored.tsv")
    _write_removed(out / "removed_score.tsv", outcome.removed)
    return outcome.removed


def _stage_postprocess(config: PipelineConfig, state: _State, out: Path):
    pp_config = replace(config.postprocess, seed=stage_seed(config.seed, "postprocess"))
    stats: dict[str, int] = {}
    state.working = combined_postprocess(
        state.working, state.source, state.catalogs, pp_config, stats
    )
    save_corpus(state.working, out / "corpus_postprocessed.tsv")
    write_lines(out / "postprocess_stats.tsv", ("%s\t%d" % kv for kv in sorted(stats.items())))
    return []


def _stage_train(config: PipelineConfig, state: _State, out: Path):
    state.crf = train_slot_tagger(state.working, config.training, state.catalogs,
                                  "CRF slot tagger (stage train)")
    state.maxent = train_intent_classifier(state.working, config.training, state.catalogs,
                                           "MaxEnt intent classifier (stage train)")
    state.crf.save(out / "crf_model.json")
    state.maxent.save(out / "intent_model.json")
    return []


def _stage_evaluate(config: PipelineConfig, state: _State, out: Path):
    hypotheses = {u.id: predict(state.crf, state.maxent, u.tokens) for u in state.test}
    report = semer(state.test, hypotheses)
    state.semer_report = report
    write_semer_report(report, out / "semer_report.tsv")
    lines = []
    for u in state.test:
        hyp = hypotheses[u.id]
        rendered = serialize_utterance(
            Utterance(u.id, u.language, u.domain, hyp.intent, u.tokens, hyp.slots)
        )
        lines.append("%s\t%.6f" % (rendered, hyp.intent_confidence))
    write_lines(out / "hypotheses.tsv", lines)
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
    """Load the inputs and saved models, and build the translators, that the
    stages read from files (see `_file_inputs`), always in the order below."""
    t, loaded = config.translation, {}

    def forward_translations():
        translations = load_translations(t.forward_translations)
        for u in loaded["source"]:
            if u.id in translations:
                checked(t.forward_translations, None, check_alignment, u, translations[u.id])
        return translations

    loaders = {
        "source": lambda: _load_nonempty_corpus(config.source_corpus, config.source_language),
        "test": lambda: _load_nonempty_corpus(config.test_corpus, config.target_language),
        "models": lambda: _load_models(Path(config.out_dir)),
        "catalogs": lambda: load_catalogs(config.catalogs),
        "source_catalogs": lambda: load_catalogs(config.source_catalogs),
        "forward": lambda: _build_translator(t, t.forward_phrase_table, forward_translations),
        "backward": lambda: _build_translator(
            t, t.backward_phrase_table, lambda: load_translations(t.backward_translations)),
        "translations": forward_translations,
    }
    inputs = _file_inputs(config.stages)
    for what, load in loaders.items():
        if what in inputs:
            loaded[what] = load()
        if what == "catalogs" and "postprocess" in config.stages:
            check_resample_catalogs(config.postprocess.resample_slots, loaded[what])
    crf, maxent = loaded.pop("models", (None, None))
    return _State(working=list(loaded.get("source", [])), crf=crf, maxent=maxent, **loaded)


def _load_nonempty_corpus(path: str, language: str) -> list[Utterance]:
    corpus = load_corpus(path, language)
    if not corpus:
        raise FormatError("the corpus has no utterances", path=path)
    return corpus


def _load_models(out: Path) -> tuple[CrfModel, MaxEntModel]:
    for name in ("crf_model.json", "intent_model.json"):
        if not (out / name).exists():
            raise ConfigError("no trained model %s: run the train stage first or place "
                              "crf_model.json and intent_model.json in the output directory"
                              % (out / name))
    return CrfModel.load(out / "crf_model.json"), MaxEntModel.load(out / "intent_model.json")


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute the configured stages; see the module docstring.

    Input problems raise ConfigError/FormatError before any stage runs and
    before anything is written; an error inside a stage raises StageFailure
    after writing the reports collected so far.
    """
    out = Path(config.out_dir)
    earlier_reports = _read_stage_reports(out / "stage_reports.tsv")
    state = _setup(config)
    fingerprint = config.fingerprint()
    out.mkdir(parents=True, exist_ok=True)
    write_lines(out / "effective_config.json",
                [json.dumps(config.effective(), sort_keys=True, indent=2)])
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
                removed=removal_counts(removed),
                duration_seconds=time.perf_counter() - started,
                fingerprint=fingerprint,
            )
        )
    _write_stage_reports(out / "stage_reports.tsv", reports, failed, earlier_reports)
    if failed is not None:
        raise StageFailure(failed[0], failed[1]) from failed[1]
    return PipelineResult(
        corpus=state.working,
        crf=state.crf,
        maxent=state.maxent,
        semer_report=state.semer_report,
        stage_reports=reports,
    )
