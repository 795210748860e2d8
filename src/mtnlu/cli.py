"""Command-line entry points.

One subcommand per pipeline stage plus `pipeline` (run several stages),
`compare` (relative change between two evaluation reports) and
`sample-grammar` (generate an annotated corpus from templates).

Exit codes: 0 success, 1 bad arguments/config/input files, 2 a stage started
and failed.
"""

from __future__ import annotations

import argparse
import sys

from .corpus import load_catalogs, load_grammar, sample_grammar, save_corpus, write_lines
from .errors import MtnluError
from .pipeline import (
    STAGES,
    StageFailure,
    format_removed,
    load_pipeline_config,
    run_pipeline,
)
from .semer import compare_runs, format_comparison, read_semer_report


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; we reserve 2 for stage failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="pipeline config (JSON)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mtnlu", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_like = [
        ("translate", ["translate"], "translate the source corpus"),
        ("project", ["project"], "project annotations onto translations"),
        ("postprocess", ["postprocess"], "resample/retain slot values"),
        ("train", ["train"], "train the slot tagger and intent classifier"),
        ("evaluate", ["evaluate"], "score trained models on the test corpus"),
    ]
    for name, stages, help_text in run_like:
        p = sub.add_parser(name, help=help_text)
        _add_run_options(p)
        p.set_defaults(func=_cmd_run, stages=stages)

    p = sub.add_parser("filter", help="filter translated data")
    _add_run_options(p)
    p.add_argument("--kind", choices=["semantic", "score", "both"], default="both",
                   help="which filter to apply (default: both)")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("pipeline", help="run several stages in order")
    _add_run_options(p)
    p.add_argument("--stages", default=None,
                   help="comma-separated subsequence of: %s" % ",".join(STAGES))
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("compare", help="relative change between two evaluation reports")
    p.add_argument("baseline", help="baseline report file")
    p.add_argument("condition", help="condition report file")
    p.add_argument("--out", default=None, help="also write the table to this file")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sample-grammar", help="generate an annotated corpus from templates")
    p.add_argument("--grammar", required=True, help="template file")
    p.add_argument("--catalog", action="append", default=[],
                   help="catalog file (repeatable)")
    p.add_argument("--count", type=int, required=True, help="number of utterances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--language", default="")
    p.add_argument("--id-prefix", default="g")
    p.add_argument("--out", required=True, help="output corpus file")
    p.set_defaults(func=_cmd_sample_grammar)

    return parser


def _print_result(result) -> None:
    for r in result.stage_reports:
        print("%s: %d -> %d removed[%s] %.2fs"
              % (r.stage, r.input_count, r.output_count, format_removed(r.removed),
                 r.duration_seconds))
    if result.semer_report is not None:
        report = result.semer_report
        print("semer overall: %.4f (%d errors / %d reference)"
              % (report.overall.semer, report.overall.errors,
                 report.overall.reference_count))
        for domain in sorted(report.per_domain):
            counts = report.per_domain[domain]
            print("semer %s: %.4f" % (domain, counts.semer))


def _run(args, stages) -> int:
    config = load_pipeline_config(
        args.config, seed=args.seed, stages=stages, out_dir=args.out
    )
    _print_result(run_pipeline(config))
    return 0


def _cmd_run(args) -> int:
    return _run(args, args.stages)


def _cmd_filter(args) -> int:
    stages = {
        "semantic": ["filter-semantic"],
        "score": ["filter-score"],
        "both": ["filter-semantic", "filter-score"],
    }[args.kind]
    return _run(args, stages)


def _cmd_pipeline(args) -> int:
    stages = None
    if args.stages is not None:
        stages = [s.strip() for s in args.stages.split(",") if s.strip()]
    return _run(args, stages)


def _cmd_compare(args) -> int:
    baseline = read_semer_report(args.baseline)
    condition = read_semer_report(args.condition)
    table = format_comparison(compare_runs(baseline, condition))
    sys.stdout.write(table)
    if args.out is not None:
        write_lines(args.out, [table.removesuffix("\n")])
    return 0


def _cmd_sample_grammar(args) -> int:
    templates = load_grammar(args.grammar)
    catalogs = load_catalogs(args.catalog)
    corpus = sample_grammar(
        templates, catalogs, args.count, args.seed,
        language=args.language, id_prefix=args.id_prefix,
    )
    save_corpus(corpus, args.out)
    print("wrote %d utterances to %s" % (len(corpus), args.out))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except StageFailure as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (MtnluError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
