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

import json
import time

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

try:  # CPython's built-in SHA-256: hashlib would load OpenSSL, 3.5 MiB resident
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.11
    except ImportError:
        from hashlib import sha256

from .corpus import (
    Catalog,
    InputPath,
    Utterance,
    checked,
    load_catalogs,
    load_corpus,
    parse,
    read_json,
    save_corpus,
    serialize_utterance,
    text_lines,
    to_json,
    write_lines,
)
from .errors import ConfigError, FormatError, MtnluError
from .filtering import (
    MODE_INTENT_SLOTS,
    FilterConfig,
    FilterOutcome,
    compute_domain_stats,
    project_corpus,
    roundtrip_check,
    score_filter,
    translated,
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
    TranslationResult,
    Translator,
    check_alignment,
    load_phrase_table,
    load_translations,
    save_translations,
)

def _file_inputs(stages: Sequence[str]) -> dict[str, list[str]]:
    """Each input that a run of `stages` reads from files, with the stages
    that read it: what they read less what an earlier stage makes."""
    inputs, made = {}, set()
    for stage in stages:
        reads, makes = _STAGES[stage][:2]
        for what in reads - made:
            inputs.setdefault(what, []).append(stage)
        made.add(makes)
    return inputs


class StageFailure(MtnluError):
    """A stage aborted; the run stops with a partial report."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        self.cause = cause
        super().__init__("stage %s failed: %s" % (stage, cause))


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
        if self.max_jump < 0:
            raise ConfigError("max_jump must be >= 0, got %d" % self.max_jump)
        if self.beam_size < 1:
            raise ConfigError("beam_size must be >= 1, got %d" % self.beam_size)
        if not self.lm_alpha > 0:
            raise ConfigError("lm_alpha must be positive, got %r" % self.lm_alpha)


@dataclass(frozen=True)
class PipelineConfig:
    """The config file as a tree of frozen dataclasses, one per JSON object.

    The field annotations are the schema: `load_pipeline_config` parses and
    type-checks the file against them and `effective` serialises them, so a
    new field needs no other edit.  Field metadata may set ``"items"`` (what
    the entries of a fixed-length list are, for its error message).
    """

    out_dir: str
    seed: int = 0
    stages: tuple[str, ...] = field(default_factory=lambda: STAGES)
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
        inputs = _file_inputs(self.stages)
        for what, (given, needed, _) in _INPUTS.items():
            if what in inputs and needed is not None and given(self) is None:
                raise ConfigError("stages %s need %s" % (sorted(inputs[what]), needed))

    def effective(self) -> dict:
        """Everything that can change results, as plain JSON data.

        The output directory is deliberately excluded: where files land has
        no effect on their contents.
        """
        effective = to_json(self)
        del effective["out_dir"]
        return effective

    def fingerprint(self) -> str:
        payload = json.dumps(self.effective(), sort_keys=True, separators=(",", ":"))
        return sha256(payload.encode("utf-8")).hexdigest()


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
    digest = sha256(("%d|%s" % (seed, stage)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def load_pipeline_config(
    path,
    seed: int | None = None,
    stages: Sequence[str] | None = None,
    out_dir: str | None = None,
) -> PipelineConfig:
    """Read a JSON config; optional arguments override file values.

    Relative paths inside the file are resolved against its directory.  A
    ConfigError names the file.
    """
    path = Path(path)
    try:
        obj = read_json(path, "config is not valid JSON")
        base = path.resolve().parent
        if isinstance(obj, dict):  # `parse` rejects any other root
            if out_dir is None and isinstance(obj.get("out_dir"), str):
                obj["out_dir"] = str(base / obj["out_dir"])
            for key, value in (("seed", seed), ("stages", stages), ("out_dir", out_dir)):
                if value is not None:
                    obj[key] = value
            if obj.get("out_dir") is None:
                raise ConfigError("out_dir must be set in the config or with --out")
        return parse(PipelineConfig, obj, "config", base)
    except OSError as exc:
        raise ConfigError("%s: cannot read config: %s" % (path, exc.strerror)) from exc
    except FormatError as exc:  # names the file already
        raise ConfigError(str(exc)) from exc
    except (ConfigError, ValueError) as exc:
        raise ConfigError("%s: %s" % (path, exc)) from exc


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
    """The state of a run: what the stages read (see `_STAGES`), the corpus
    they pass on, what they make, and a report per stage that ran.

    `run_pipeline` resets each input but the models to its default once no
    later stage of the run reads it, so the state it returns holds only the
    corpus, the models, the SemER report and the stage reports."""

    source: list[Utterance] = field(default_factory=list)
    corpus: list[Utterance] = field(default_factory=list)
    translations: dict[str, TranslationResult] = field(default_factory=dict)
    test: list[Utterance] = field(default_factory=list)
    catalogs: dict[str, Catalog] = field(default_factory=dict)
    source_catalogs: dict[str, Catalog] = field(default_factory=dict)
    forward: Translator | None = None
    backward: Translator | None = None
    crf: CrfModel | None = None
    maxent: MaxEntModel | None = None
    semer_report: SemerReport | None = None
    stage_reports: list[StageReport] = field(default_factory=list)


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


# --- stages -------------------------------------------------------------------


def _stage_translate(config: PipelineConfig, state: PipelineResult):
    removed: list[tuple[str, str]] = []
    pairs = list(translated(state.corpus, state.forward, removed))
    state.translations = {u.id: result for u, result in pairs}
    return FilterOutcome([u for u, _ in pairs], removed), {"translations.tsv": lambda path: (
        save_translations(dict(sorted(state.translations.items())), path))}


def _stage_project(config: PipelineConfig, state: PipelineResult):
    return project_corpus(state.corpus, FileTranslator(state.translations)), {}


def _stage_filter_semantic(config: PipelineConfig, state: PipelineResult):
    crf = None  # only the INTENT_SLOTS mode reads source slots
    if config.filter.mode == MODE_INTENT_SLOTS:
        crf = train_slot_tagger(state.source, config.training, state.source_catalogs,
                                "CRF slot tagger (stage filter-semantic)")
    maxent = train_intent_classifier(state.source, config.training, state.source_catalogs,
                                     "MaxEnt intent classifier (stage filter-semantic)")
    # the project stage, when the run has it, has just made the projections
    projection = (FilterOutcome(state.corpus, []) if "project" in config.stages
                  else _stage_project(config, state)[0])
    return roundtrip_check(projection, state.source, state.backward, (crf, maxent),
                           config.filter), {}


def _stage_filter_score(config: PipelineConfig, state: PipelineResult):
    stats = compute_domain_stats(state.corpus, state.translations)
    lines = ["domain\tmean\tstdev\tcount"] + [
        "%s\t%r\t%r\t%d" % (domain, st.mean, st.stdev, st.count)
        for domain, st in sorted(stats.items())
    ]
    return score_filter(
        state.corpus, state.translations, stats, config.filter.score_multiplier
    ), {"score_stats.tsv": lambda path: write_lines(path, lines)}


def _stage_postprocess(config: PipelineConfig, state: PipelineResult):
    stats: dict[str, int] = {}
    corpus = combined_postprocess(state.corpus, state.source, state.catalogs, config.postprocess,
                                  stage_seed(config.seed, "postprocess"), stats)
    return FilterOutcome(corpus, []), {"postprocess_stats.tsv": lambda path: write_lines(
        path, ("%s\t%d" % kv for kv in sorted(stats.items())))}


def _stage_train(config: PipelineConfig, state: PipelineResult):
    if not state.corpus:  # a run's corpus starts non-empty, so one of its stages emptied it
        r = next(r for r in state.stage_reports if r.input_count and not r.output_count)
        raise ValueError("no utterance left to train on: %s removed all %d (%s)"
                         % (r.stage, r.input_count, format_removed(r.removed)))
    state.crf = train_slot_tagger(state.corpus, config.training, state.catalogs,
                                  "CRF slot tagger (stage train)")
    state.maxent = train_intent_classifier(state.corpus, config.training, state.catalogs,
                                           "MaxEnt intent classifier (stage train)")
    return None, {"crf_model.json": state.crf.save, "intent_model.json": state.maxent.save}


def _stage_evaluate(config: PipelineConfig, state: PipelineResult):
    hypotheses = {u.id: predict(state.crf, state.maxent, u.tokens) for u in state.test}
    state.semer_report = semer(state.test, hypotheses)
    lines = []
    for u in state.test:
        hyp = hypotheses[u.id]
        rendered = serialize_utterance(
            Utterance(u.id, u.domain, hyp.intent, u.tokens, hyp.slots)
        )
        lines.append("%s\t%.6f" % (rendered, hyp.intent_confidence))
    return None, {"semer_report.tsv": lambda path: write_semer_report(state.semer_report, path),
                  "hypotheses.tsv": lambda path: write_lines(path, lines)}


# Each stage in run order: what it reads, what it makes for the stages after
# it in the same run (a run reads the rest from files, see `_file_inputs`),
# its handler, and the files for its FilterOutcome's kept corpus and removals.
# A handler touches no file: it returns its FilterOutcome (None if it passes no
# corpus on) and, by name, a writer `path -> None` for each other file it makes.
_STAGES: dict[str, tuple[set[str], str | None, Callable[..., tuple[FilterOutcome | None, dict]],
                         tuple[str | None, str | None]]] = {
    "translate": ({"source", "forward"}, "translations", _stage_translate, (None, None)),
    "project": ({"source", "translations"}, None, _stage_project,
                ("corpus_projected.tsv", "removed_project.tsv")),
    "filter-semantic": ({"source", "source_catalogs", "backward", "translations"}, None,
                        _stage_filter_semantic, ("corpus_semantic.tsv", "removed_semantic.tsv")),
    "filter-score": ({"source", "translations"}, None, _stage_filter_score,
                     ("corpus_scored.tsv", "removed_score.tsv")),
    "postprocess": ({"source", "catalogs"}, None, _stage_postprocess,
                    ("corpus_postprocessed.tsv", None)),
    "train": ({"source", "catalogs"}, "models", _stage_train, (None, None)),
    "evaluate": ({"test", "models"}, None, _stage_evaluate, (None, None)),
}
STAGES = tuple(_STAGES)


def _nonempty(what: str, load: Callable, path: str):
    items = load(path)
    if not items:
        raise FormatError("the " + what, path=path)
    return items


def _build_translator(t: TranslationConfig, phrase_table: str | None, translations: str,
                      source: Sequence[Utterance]) -> Translator:
    """A decoder on `phrase_table`, or else the `translations` file."""
    if phrase_table is None:
        return FileTranslator(_load_translations(translations, source))
    model = PhraseTableModel.from_pairs(
        load_phrase_table(phrase_table),
        lm_alpha=t.lm_alpha,
        weights=t.weights,
        max_jump=t.max_jump,
        beam_size=t.beam_size,
    )
    return PhraseTableTranslator(model)


def _load_translations(path: str, source: Sequence[Utterance]) -> dict[str, TranslationResult]:
    """The translations file at `path`, checked against the alignments of `source`."""
    translations = _nonempty("translations file has no translations", load_translations, path)
    for u in source:
        if u.id in translations:
            checked(path, None, check_alignment, u, translations[u.id])
    return translations


def _load_catalogs(config: PipelineConfig) -> dict[str, Catalog]:
    catalogs = load_catalogs(config.catalogs)
    if "postprocess" in config.stages:
        check_resample_catalogs(config.postprocess.resample_slots, catalogs)
    return catalogs


# Each input that the stages read (see `_STAGES`) in the order `_setup` loads
# them: the config value that supplies it; what the stages need when it is
# None, or None if it cannot be missing; and its loader, which reads the config
# and the inputs loaded before it.  A loader looks up each load function when
# it runs, so that a tracer or a test can replace it by name.
_INPUTS: dict[str, tuple[Callable[[PipelineConfig], object], str | None, Callable]] = {
    "source": (lambda c: c.source_corpus, "a source_corpus", lambda c, loaded: _nonempty(
        "corpus has no utterances", load_corpus, c.source_corpus)),
    "test": (lambda c: c.test_corpus, "a test_corpus", lambda c, loaded: _nonempty(
        "corpus has no utterances", load_corpus, c.test_corpus)),
    "models": (lambda c: c.out_dir, None, lambda c, loaded: _load_models(Path(c.out_dir))),
    "catalogs": (lambda c: c.catalogs, None, lambda c, loaded: _load_catalogs(c)),
    "source_catalogs": (lambda c: c.source_catalogs, None,
                        lambda c, loaded: load_catalogs(c.source_catalogs)),
    "forward": (
        lambda c: c.translation.forward_translations or c.translation.forward_phrase_table,
        "a forward translations file or phrase table",
        lambda c, loaded: _build_translator(c.translation, c.translation.forward_phrase_table,
                                            c.translation.forward_translations, loaded["source"])),
    "backward": (
        lambda c: c.translation.backward_translations or c.translation.backward_phrase_table,
        "a backward translations file or phrase table",
        lambda c, loaded: _build_translator(c.translation, c.translation.backward_phrase_table,
                                            c.translation.backward_translations, ())),
    "translations": (
        lambda c: c.translation.forward_translations,
        "translations: run the translate stage or configure a forward translations file",
        lambda c, loaded: _load_translations(c.translation.forward_translations, loaded["source"])),
}


def _setup(config: PipelineConfig) -> PipelineResult:
    """The state that the stages start from: the `_INPUTS` they read from files."""
    inputs, loaded = _file_inputs(config.stages), {}
    for what, (_, _, load) in _INPUTS.items():
        if what in inputs:
            loaded[what] = load(config, loaded)
    crf, maxent = loaded.pop("models", (None, None))
    return PipelineResult(corpus=list(loaded.get("source", [])), crf=crf, maxent=maxent, **loaded)


def _load_models(out: Path) -> tuple[CrfModel, MaxEntModel]:
    for name in ("crf_model.json", "intent_model.json"):
        if not (out / name).exists():
            raise ConfigError("no trained model %s: run the train stage first or place "
                              "crf_model.json and intent_model.json in the output directory"
                              % (out / name))
    crf = CrfModel.load(out / "crf_model.json")
    return crf, MaxEntModel.load(out / "intent_model.json", crf.gazetteers)


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute the configured stages and return the state they ran on; see
    the module docstring.

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
    failed: tuple[str, BaseException] | None = None
    defaults = PipelineResult()
    for i, stage in enumerate(config.stages):
        _, _, run, (corpus_file, removed_file) = _STAGES[stage]
        input_count = len(state.test) if stage == "evaluate" else len(state.corpus)
        started = time.perf_counter()
        try:
            outcome, writers = run(config, state)
            if outcome is not None:
                state.corpus = outcome.kept
                writers[corpus_file] = lambda path: save_corpus(outcome.kept, path)
                writers[removed_file] = lambda path: write_lines(
                    path, ("%s\t%s" % r for r in outcome.removed))
            for name, write in writers.items():
                if name is not None:  # a stage with no corpus or no removals file
                    write(out / name)
        except Exception as exc:  # noqa: BLE001 - reported as a stage failure
            failed = (stage, exc)
            break
        state.stage_reports.append(
            StageReport(
                stage=stage,
                input_count=input_count,
                output_count=len(state.test) if stage == "evaluate" else len(state.corpus),
                removed={} if outcome is None else outcome.stats,
                duration_seconds=time.perf_counter() - started,
                fingerprint=fingerprint,
            )
        )
        later_reads = set().union(*(_STAGES[s][0] for s in config.stages[i + 1:]))
        for what in _INPUTS.keys() - {"models"} - later_reads:
            setattr(state, what, getattr(defaults, what))
    _write_stage_reports(out / "stage_reports.tsv", state.stage_reports, failed, earlier_reports)
    if failed is not None:
        raise StageFailure(failed[0], failed[1]) from failed[1]
    return state
