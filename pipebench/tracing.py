"""Traced run: the mtnlu command line with spans around each layer.

    python3 pipebench/tracing.py TRACE_JSON pipeline --config cfg.json ...

installs wrappers around public functions of the package, runs
``mtnlu.cli.main`` on the remaining arguments in this process, and writes
the recorded spans and counts to TRACE_JSON.  A wrapper replaces the
function in every ``mtnlu`` module that holds it, so a call through any
import path is recorded; a name that no longer exists is listed as absent
instead of failing the run.  Nothing under ``src`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time

# (span, module, attribute); "Class.method" names a method
SPANS = [
    ("pipeline.run", "mtnlu.pipeline", "run_pipeline"),
    ("translate.decode", "mtnlu.translate", "decode"),
    ("translate.project", "mtnlu.translate", "project_annotations"),
    ("features.gazetteer", "mtnlu.nlu.features", "gazetteer_hits"),
    ("crf.train", "mtnlu.nlu.crf", "train_slot_tagger"),
    ("crf.viterbi", "mtnlu.nlu.crf", "viterbi"),
    ("crf.tag_slots", "mtnlu.nlu.crf", "tag_slots"),
    ("crf.save", "mtnlu.nlu.crf", "CrfModel.save"),
    ("crf.load", "mtnlu.nlu.crf", "CrfModel.load"),
    ("maxent.train", "mtnlu.nlu.maxent", "train_intent_classifier"),
    ("maxent.intent_posteriors", "mtnlu.nlu.maxent", "intent_posteriors"),
    ("maxent.posterior", "mtnlu.nlu.maxent", "MaxEntModel.posterior"),
    ("maxent.save", "mtnlu.nlu.maxent", "MaxEntModel.save"),
    ("maxent.load", "mtnlu.nlu.maxent", "MaxEntModel.load"),
    ("filtering.roundtrip", "mtnlu.filtering", "roundtrip_filter"),
    ("filtering.domain_stats", "mtnlu.filtering", "compute_domain_stats"),
    ("filtering.score", "mtnlu.filtering", "score_filter"),
    ("postprocess.combined", "mtnlu.postprocess", "combined_postprocess"),
    ("corpus.load", "mtnlu.corpus", "load_corpus"),
    ("corpus.load_catalogs", "mtnlu.corpus", "load_catalogs"),
    ("corpus.save", "mtnlu.corpus", "save_corpus"),
    ("semer.score", "mtnlu.semer", "semer"),
    ("semer.write", "mtnlu.semer", "write_semer_report"),
]

# The optimizer is wrapped only inside the module that trains each model,
# so that its evaluations and iterations are told apart per model.
OPTIMIZERS = [
    ("crf.minimize", "mtnlu.nlu.crf", "minimize"),
    ("maxent.minimize", "mtnlu.nlu.maxent", "minimize"),
]


class Tracer:
    """Per-span call counts, total and self seconds, and failures."""

    def __init__(self):
        self.spans: dict[str, dict] = {}
        self.stack: list[list[float]] = []  # [seconds spent in child spans]
        self.absent: list[str] = []
        self.gazetteer_inputs: set = set()
        self.models: dict[str, list] = {}  # optimizer span -> [iterations, converged]
        self.stages: dict[str, float] = {}

    def record(self, name: str, fn, args, kwargs):
        frame = [0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            elapsed = time.perf_counter() - start
            self.stack.pop()
            if self.stack:
                self.stack[-1][0] += elapsed
            span = self.spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0})
            span["calls"] += 1
            span["s"] += elapsed
            span["self_s"] += elapsed - frame[0]
            span["failed"] += failed

    def wrap(self, name: str, fn):
        observe = {
            "features.gazetteer": self.observe_gazetteer,
            "pipeline.run": self.observe_pipeline,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.record(name, fn, args, kwargs)
            if observe is not None:
                observe(args, result)
            return result
        return wrapper

    def observe_gazetteer(self, args, result) -> None:
        self.gazetteer_inputs.add(tuple(args[0]))

    def observe_pipeline(self, args, result) -> None:
        """Stage durations from the public PipelineResult.stage_reports."""
        self.stages = {r.stage: r.duration_seconds for r in result.stage_reports}

    def wrap_optimizer(self, name: str, fn):
        objective = name.replace("minimize", "objective")

        @functools.wraps(fn)
        def wrapper(fun, *args, **kwargs):
            def counted(*a, **k):
                return self.record(objective, fun, a, k)
            result = self.record(name, fn, (counted,) + args, kwargs)
            iterations = getattr(result, "iterations", getattr(result, "nit", 0))
            converged = getattr(result, "converged", getattr(result, "success", False))
            model = self.models.setdefault(name, [0, 0])
            model[0] += int(iterations)
            model[1] += bool(converged)
            return result
        return wrapper


def _mtnlu_modules():
    import mtnlu
    for info in pkgutil.walk_packages(mtnlu.__path__, "mtnlu."):
        importlib.import_module(info.name)
    return [m for name, m in sys.modules.items() if name == "mtnlu" or name.startswith("mtnlu.")]


def install(tracer: Tracer) -> None:
    modules = _mtnlu_modules()
    for span, module_name, attribute in SPANS:
        owner = sys.modules.get(module_name)
        cls_name, _, method = attribute.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        raw = owner.__dict__.get(method) if owner is not None else None
        if raw is None:
            tracer.absent.append(span)
        elif isinstance(raw, classmethod):
            setattr(owner, method, classmethod(tracer.wrap(span, raw.__func__)))
        elif cls_name:
            setattr(owner, method, tracer.wrap(span, raw))
        else:
            wrapper = tracer.wrap(span, raw)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, wrapper)
    for span, module_name, attribute in OPTIMIZERS:
        module = sys.modules.get(module_name)
        fn = getattr(module, attribute, None)
        if fn is None:
            tracer.absent.append(span)
        else:
            setattr(module, attribute, tracer.wrap_optimizer(span, fn))


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from mtnlu.cli import main as cli_main
    code = cli_main(cli_args)
    record = {
        "spans": tracer.spans,
        "absent": tracer.absent,
        "gazetteer_distinct": len(tracer.gazetteer_inputs),
        "models": tracer.models,
        "stages": tracer.stages,
    }
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
