"""Pipeline benchmark: time the mtnlu command line on generated workloads.

    python3 pipebench/run.py --workload filter-train --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  For the named workload and seed the
benchmark generates every input (corpora, catalogs, phrase tables or
translation files, config) under ``.pipebench/``, then runs rounds of the
user's own commands as child processes until ``--seconds`` have passed:
``mtnlu pipeline`` and then ``mtnlu evaluate`` on the saved models.  Every
output is checked (see checks.py).  The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` operations (one
operation is one child process; it fails on a non-zero exit or a failed
check) and the metrics.

With ``--trace 0`` the metrics are the end-to-end ones, timed from outside.
With ``--trace 1`` each round runs the pipeline once untraced and then
pipeline and evaluate under tracing.py, and the metrics are the per-layer
ones plus the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".pipebench"

SETUP_REPEATS = 15
EVALUATE_REPEATS = 2
CHILD_TIMEOUT_S = 120
# intent error bound on the clean test set; decode-reorder trains few
# iterations on reordered translations, so its models are weaker
MAX_INTENT_ERROR = {"filter-train": 0.2, "decode-reorder": 0.5, "large-catalog": 0.2}
STAGES = ("translate", "project", "filter-semantic", "filter-score", "postprocess",
          "train", "evaluate")
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({name: str(threads) for name in THREAD_VARIABLES})
    return env


def run_child(argv: list, env: dict, log: Path) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak RSS in MiB of one child process."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


class Run:
    """One benchmark run: inputs, operation accounting and the reference
    output digest that every later pipeline run must reproduce."""

    def __init__(self, args, work: Path, inputs: workloads.Inputs, env: dict):
        self.args = args
        self.work = work
        self.inputs = inputs
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.reference: dict | None = None

    def operation(self, name: str, argv: list) -> tuple[int, float, float]:
        self.attempted += 1
        code, seconds, rss = run_child(argv, self.env, self.work / (name + ".log"))
        if code != 0:
            log = (self.work / (name + ".log")).read_text(errors="replace").strip()
            self.fail(name, ["exit %d: %s" % (code, log.splitlines()[-1] if log else "")])
        return code, seconds, rss

    def fail(self, name: str, problems: list) -> None:
        self.failed += 1
        for problem in problems:
            print("pipebench: %s: %s" % (name, problem), file=sys.stderr)

    def mtnlu(self, command: str, out: Path, trace: Path | None = None) -> list:
        prefix = [sys.executable, "-m", "mtnlu.cli"] if trace is None \
            else [sys.executable, str(HERE / "tracing.py"), str(trace)]
        return prefix + [command, "--config", str(self.inputs.config), "--out", str(out)]

    def pipeline(self, name: str, out: Path, trace: Path | None = None):
        """Run and check `mtnlu pipeline`; returns (seconds, peak RSS MiB)."""
        code, seconds, rss = self.operation(name, self.mtnlu("pipeline", out, trace))
        if code == 0:
            problems = checks.check_pipeline(out, self.inputs,
                                             MAX_INTENT_ERROR[self.args.workload])
            digest = checks.digest(out)
            if self.reference is None:
                self.reference = digest
            elif digest != self.reference:
                problems.append("output differs from the first run: %s" % sorted(
                    k for k in set(digest) | set(self.reference)
                    if digest.get(k) != self.reference.get(k)))
            if problems:
                self.fail(name, problems)
        return seconds, rss

    def evaluate(self, name: str, out: Path, trace: Path | None = None) -> float:
        """Run `mtnlu evaluate` on the models a pipeline saved in `out`; it
        must reproduce the pipeline's own evaluation byte for byte."""
        before = {f: (out / f).read_bytes() for f in ("semer_report.tsv", "hypotheses.tsv")
                  if (out / f).exists()}
        code, seconds, _ = self.operation(name, self.mtnlu("evaluate", out, trace))
        if code == 0:
            problems = ["%s differs from the pipeline's" % f for f, data in before.items()
                        if (out / f).read_bytes() != data]
            if len(before) != 2:
                problems.append("the pipeline wrote no evaluation to compare")
            try:
                problems += checks.check_stages(out, self.inputs)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append("unreadable output: %r" % exc)
            if problems:
                self.fail(name, problems)
        return seconds


def end_to_end_round(run: Run, r: int) -> dict:
    """Samples of one round: a pipeline, then EVALUATE_REPEATS evaluations
    of its models (each is short, so one would be mostly start-up noise)."""
    out = run.work / ("out%d" % r)
    run_s, rss = run.pipeline("pipeline%d" % r, out)
    evaluate_s = [run.evaluate("evaluate%d-%d" % (r, i), out) for i in range(EVALUATE_REPEATS)]
    shutil.rmtree(out, ignore_errors=True)
    return {"run_s": [run_s], "evaluate_s": evaluate_s, "peak_rss_mib": [rss]}


def traced_round(run: Run, r: int) -> dict:
    plain, traced = run.work / ("plain%d" % r), run.work / ("traced%d" % r)
    untraced_s, _ = run.pipeline("pipeline%d" % r, plain)
    traced_s, _ = run.pipeline("traced-pipeline%d" % r, traced, run.work / "p.json")
    run.evaluate("traced-evaluate%d" % r, traced, run.work / "e.json")
    traces = []
    for name in ("p.json", "e.json"):
        path = run.work / name
        traces.append(json.loads(path.read_text()) if path.exists() else None)
        path.unlink(missing_ok=True)
    shutil.rmtree(plain, ignore_errors=True)
    shutil.rmtree(traced, ignore_errors=True)
    metrics = layer_metrics(*traces) if None not in traces else {}
    metrics["trace.overhead_s"] = traced_s - untraced_s
    return {name: [value] for name, value in metrics.items()}


def layer_metrics(pipe: dict, evaluate: dict) -> dict:
    """Per-layer metrics of one traced pipeline and evaluate pair; None
    marks a metric whose wrapped name no longer exists."""
    absent = set(pipe["absent"]) | set(evaluate["absent"])
    spans: dict[str, dict] = {}
    for trace in (pipe, evaluate):
        for name, span in trace["spans"].items():
            into = spans.setdefault(name, dict.fromkeys(span, 0))
            for key, value in span.items():
                into[key] += value
    models = {name: [a + b for a, b in zip(pipe["models"].get(name, [0, 0]),
                                            evaluate["models"].get(name, [0, 0]))]
              for name in ("crf.minimize", "maxent.minimize")}

    def get(key: str, *names: str):
        if absent & set(names):
            return None
        return sum(spans.get(name, {}).get(key, 0) for name in names)

    def ratio(a, b, scale=1.0):
        return None if a is None or b is None or b == 0 else scale * a / b

    def model(name: str, index: int):
        return None if name in absent else models[name][index]

    m = {"pipeline.%s_s" % stage.replace("-", "_"):
         None if "pipeline.run" in absent else pipe["stages"].get(stage, 0.0)
         for stage in STAGES}
    m.update({
        "translate.decode_calls": get("calls", "translate.decode"),
        "translate.decode_s": get("s", "translate.decode"),
        "translate.decode_failed": get("failed", "translate.decode"),
        "translate.project_calls": get("calls", "translate.project"),
        "translate.project_s": get("s", "translate.project"),
        "features.gazetteer_calls": get("calls", "features.gazetteer"),
        "features.gazetteer_s": get("s", "features.gazetteer"),
        "features.gazetteer_distinct_ratio": ratio(
            None if "features.gazetteer" in absent
            else pipe["gazetteer_distinct"] + evaluate["gazetteer_distinct"],
            get("calls", "features.gazetteer")),
        "crf.train_s": get("s", "crf.train"),
        "crf.objective_evals": get("calls", "crf.objective"),
        "crf.eval_ms": ratio(get("s", "crf.objective"), get("calls", "crf.objective"), 1e3),
        "crf.iterations": model("crf.minimize", 0),
        "crf.converged": model("crf.minimize", 1),
        "crf.viterbi_calls": get("calls", "crf.viterbi"),
        "crf.viterbi_s": get("s", "crf.viterbi"),
        "crf.model_io_s": get("s", "crf.save", "crf.load"),
        "maxent.train_s": get("s", "maxent.train"),
        "maxent.objective_evals": get("calls", "maxent.objective"),
        "maxent.iterations": model("maxent.minimize", 0),
        "maxent.posterior_calls": get("calls", "maxent.posterior"),
        "maxent.posterior_s": get("s", "maxent.posterior"),
        "optim.evals_per_iteration": ratio(
            get("calls", "crf.objective", "maxent.objective"),
            None if absent & {"crf.minimize", "maxent.minimize"}
            else models["crf.minimize"][0] + models["maxent.minimize"][0]),
        "filtering.roundtrip_self_s": get("self_s", "filtering.roundtrip"),
        "filtering.score_s": get("s", "filtering.domain_stats", "filtering.score"),
        "postprocess.s": get("s", "postprocess.combined"),
        "corpus.load_s": get("s", "corpus.load", "corpus.load_catalogs"),
        "corpus.save_s": get("s", "corpus.save"),
        "semer.s": get("s", "semer.score", "semer.write"),
    })
    return m


UNITS = {"setup_s": "s", "run_s": "s", "evaluate_s": "s", "peak_rss_mib": "MiB",
         "trace.overhead_s": "s", "crf.eval_ms": "ms",
         "features.gazetteer_distinct_ratio": "ratio", "optim.evals_per_iteration": "ratio"}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith(("_s", ".s")) else "count"


def median_metrics(rounds: list[dict]) -> dict:
    """Median over every sample of every round; a metric with no numeric
    sample (its wrapped name is absent) reports the value null."""
    names = sorted({name for r in rounds for name in r})
    out = {}
    for name in names:
        values = [v for r in rounds for v in r.get(name, []) if v is not None]
        out[name] = {"value": statistics.median(values) if values else None,
                     "unit": unit(name)}
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: a seconds-long run with the same checks")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mtnlu" / "__init__.py").is_file():
        print("pipebench: error: %s/mtnlu not found; run from a checkout of the repository"
              % SRC, file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    print("pipebench: workload=%s size=%s seed=%d, BLAS/OpenMP threads capped at %d"
          % (args.workload, args.size, args.seed, threads), file=sys.stderr)
    work = WORK / ("%s-%s-s%d-p%d" % (args.workload, args.size, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = measure(args, work, child_env(threads))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def measure(args, work: Path, env: dict) -> dict:
    setup_s, digests = [], []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workloads.generate(args.workload, args.size, work / ("inputs%d" % i), args.seed)
        setup_s.append(time.perf_counter() - start)
        digests.append(checks.digest(inputs.root))
    if any(d != digests[0] for d in digests):
        raise SystemExit("pipebench: error: the same seed generated different inputs")
    run = Run(args, work, inputs, env)

    one_round = traced_round if args.trace else end_to_end_round
    rounds = []
    deadline = time.perf_counter() + args.seconds
    # two untraced rounds at least, so that reruns are compared byte for byte
    # (a traced round compares its traced run with its untraced one)
    while len(rounds) < (1 if args.trace else 2) or time.perf_counter() < deadline:
        rounds.append(one_round(run, len(rounds)))
    metrics = median_metrics(rounds)
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
