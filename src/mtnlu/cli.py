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


# the stages `filter --kind` runs
_FILTER_KINDS = {"semantic": "filter-semantic", "score": "filter-score",
                 "both": "filter-semantic,filter-score"}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mtnlu", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # (subcommand, the comma-separated stages it runs, help); `filter` and
    # `pipeline` take their stages from --kind and --stages
    for name, stages, help_text in [
        ("translate", "translate", "translate the source corpus"),
        ("project", "project", "project annotations onto translations"),
        ("postprocess", "postprocess", "resample/retain slot values"),
        ("train", "train", "train the slot tagger and intent classifier"),
        ("evaluate", "evaluate", "score trained models on the test corpus"),
        ("filter", None, "filter translated data"),
        ("pipeline", None, "run several stages in order"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="pipeline config (JSON)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.set_defaults(func=_cmd_run, stages=stages)
    sub.choices["filter"].add_argument("--kind", choices=list(_FILTER_KINDS), default="both",
                                       help="which filter to apply (default: both)")
    sub.choices["pipeline"].add_argument(
        "--stages", help="comma-separated subsequence of: %s" % ",".join(STAGES))

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
    p.add_argument("--id-prefix", default="g")
    p.add_argument("--out", required=True, help="output corpus file")
    p.set_defaults(func=_cmd_sample_grammar)

    return parser


def _cmd_run(args) -> int:
    stages = _FILTER_KINDS[args.kind] if args.command == "filter" else args.stages
    if stages is not None:  # `pipeline` without --stages runs those of the config
        stages = [s.strip() for s in stages.split(",") if s.strip()]
    config = load_pipeline_config(args.config, seed=args.seed, stages=stages, out_dir=args.out)
    result = run_pipeline(config)
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
    return 0


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
    corpus = sample_grammar(templates, catalogs, args.count, args.seed, id_prefix=args.id_prefix)
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
