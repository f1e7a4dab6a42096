"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure.  Subcommands: design, toxtrain, toxpredict, toxbench, physchem,
encode, align, cluster, census.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, descriptors, physchem, pipeline, similarity, textio, vae
from . import corpus as corpus_mod
from .errors import ConfigError, PeptasteError
from .sequences import PatternMode, Peptide, parse_pattern
from .toxicity import ensemble as ens


def _pattern(code: str):
    return parse_pattern(code if code.startswith(">") else ">" + code)


def _descriptor_ids(text: str) -> tuple[str, ...]:
    """The --descriptors list: known IDs, comma-separated, empty entries skipped."""
    ids = tuple(s.strip() for s in text.split(",") if s.strip())
    if not ids:
        raise ConfigError("--descriptors names no descriptor")
    descriptors.check_ids(ids)
    return ids


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peptaste",
        description="Taste-peptide design, toxicity screening, and profiling.",
    )
    parser.add_argument("--version", action="version", version=f"peptaste {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # design and toxtrain flags set the DesignRun / ToxTrainOptions field
    # named by their dest; a flag left out keeps that field's default
    p = sub.add_parser(
        "design", help="run the full design workflow", argument_default=argparse.SUPPRESS
    )
    p.add_argument("--pattern", required=True, help="request code such as x1x00")
    p.add_argument("--mode", choices=[m.value for m in PatternMode])
    p.add_argument(
        "--corpus",
        dest="corpus_path",
        metavar="CORPUS",
        required=True,
        help="annotated corpus (FASTA or TSV)",
    )
    p.add_argument(
        "--tox-model",
        dest="tox_model_path",
        metavar="TOX_MODEL",
        required=True,
        help="fitted toxicity model file",
    )
    p.add_argument(
        "--out", dest="out_dir", metavar="OUT", required=True, help="output directory"
    )
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--latent-dim", type=int)
    p.add_argument("--extension-epochs", type=int)
    p.add_argument("--hidden-units", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--dropout", dest="dropout_rate", metavar="DROPOUT", type=float)
    p.add_argument("--l1-lambda", type=float)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--candidates", type=int)
    p.add_argument("--keep-fraction", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--cluster-threshold", type=float)
    p.add_argument("--max-len", type=int)
    p.add_argument("--generation-mode", choices=vae.GENERATION_MODES)
    p.add_argument("--tau", type=float)
    p.add_argument(
        "--distance-space",
        choices=pipeline.DISTANCE_SPACES,
        help="space for nearest-neighbor screening distances",
    )

    p = sub.add_parser(
        "toxtrain", help="train the toxicity ensemble", argument_default=argparse.SUPPRESS
    )
    p.add_argument("--pos", required=True, help="toxic sequences file")
    p.add_argument("--neg", required=True, help="non-toxic sequences file")
    p.add_argument("--model-out", required=True)
    p.add_argument("--report-out", default=None, help="metrics text file")
    p.add_argument("--trace-out", default=None, help="selection trace TSV")
    p.add_argument("--seed", type=int)
    p.add_argument("--folds", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--max-len", type=int)
    p.add_argument("--selector", help="classifier preset driving descriptor selection")
    p.add_argument("--selector-trees", type=int)
    p.add_argument("--member-trees", type=int)
    p.add_argument(
        "--descriptors",
        dest="universe",
        metavar="DESCRIPTORS",
        type=_descriptor_ids,
        help="comma-separated descriptor universe (default: all 20)",
    )

    p = sub.add_parser("toxpredict", help="score sequences with a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="sequences file")
    p.add_argument("--out", default=None, help="output TSV (default stdout)")

    p = sub.add_parser(
        "toxbench", help="evaluate a fitted model on labeled sequence files"
    )
    p.add_argument("--model", required=True)
    p.add_argument("--pos", required=True, help="known-toxic sequences")
    p.add_argument("--neg", required=True, help="known-non-toxic sequences")
    p.add_argument("--out", default=None, help="metrics TSV (default stdout)")

    p = sub.add_parser("physchem", help="physicochemical profiles")
    p.add_argument("--input", required=True, help="sequences file (FASTA or text)")
    p.add_argument("--out", default=None, help="output TSV (default stdout)")

    p = sub.add_parser("encode", help="emit descriptor vectors as TSV")
    p.add_argument("--input", required=True, help="sequences file")
    p.add_argument(
        "--descriptors",
        required=True,
        type=_descriptor_ids,
        help="comma-separated descriptor names",
    )
    p.add_argument("--out", default=None, help="output TSV (default stdout)")

    p = sub.add_parser("align", help="align two sequences")
    p.add_argument("seq_a")
    p.add_argument("seq_b")
    p.add_argument("--match", type=float, default=2.0)
    p.add_argument("--mismatch", type=float, default=-1.0)
    p.add_argument("--gap-open", type=float, default=-0.5)
    p.add_argument("--gap-extend", type=float, default=-0.1)

    p = sub.add_parser("cluster", help="similarity clustering of sequences")
    p.add_argument("--input", required=True, help="sequences file")
    p.add_argument("--threshold", type=float, default=0.70)
    p.add_argument("--out", default=None, help="output TSV (default stdout)")

    p = sub.add_parser("census", help="taste statistics for a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", default=None, help="census TSV (default stdout)")
    return parser


def design_run(args) -> pipeline.DesignRun:
    """The run a parsed `design` command line asks for."""
    values = pipeline.field_values(pipeline.DesignRun, args)
    values["pattern"] = _pattern(args.pattern)
    if "mode" in values:
        values["mode"] = PatternMode(values["mode"])
    return pipeline.DesignRun(**values)


def toxtrain_options(args) -> pipeline.ToxTrainOptions:
    """The training options a parsed `toxtrain` command line asks for."""
    values = pipeline.field_values(pipeline.ToxTrainOptions, args)
    return pipeline.ToxTrainOptions(**values)


def _cmd_design(args) -> int:
    report = pipeline.run_design(design_run(args))
    counts = report.counts
    print(
        f"design complete: {counts['generated']} generated, "
        f"{counts['filtered']} passed filtering, "
        f"{counts['representatives']} representatives -> {report.out_dir}"
    )
    return 0


def _cmd_toxtrain(args) -> int:
    options = toxtrain_options(args)
    result = pipeline.run_toxtrain(args.pos, args.neg, args.model_out, options)
    text = pipeline.toxtrain_report_text(result)
    if args.report_out:
        textio.write_text(args.report_out, text)
    if args.trace_out:
        textio.write_table(
            args.trace_out,
            ("stage", "descriptors", "mcc"),
            [(row.stage, "+".join(row.ids), row.mcc) for row in result.selection.trace],
        )
    sys.stdout.write(text)
    return 0


def _cmd_toxpredict(args) -> int:
    rows = pipeline.run_toxpredict(args.model, args.input)
    textio.write_table(
        args.out, ens.PREDICT_COLUMNS, [[r[c] for c in ens.PREDICT_COLUMNS] for r in rows]
    )
    return 0


def _cmd_toxbench(args) -> int:
    report, excluded = pipeline.run_toxbench(args.model, args.pos, args.neg)
    rows = list(report.as_dict().items())
    rows.append(("excluded", excluded))  # rows the model could not score
    textio.write_table(args.out, ("metric", "value"), rows)
    return 0


def _cmd_physchem(args) -> int:
    seqs = pipeline.read_sequences(args.input)
    with pipeline._parsing(args.input):
        matrix = physchem.profiles(seqs)  # validates every sequence before writing
    textio.write_matrix(args.out, ("sequence", *physchem.PROFILE_FIELDS), seqs, matrix)
    return 0


def _cmd_encode(args) -> int:
    seqs = pipeline.read_sequences(args.input)
    with pipeline._parsing(args.input):
        matrix = descriptors.encode_matrix(args.descriptors, seqs)
    textio.write_matrix(
        args.out, ("sequence", *descriptors.column_names(args.descriptors)), seqs, matrix
    )
    return 0


def _cmd_align(args) -> int:
    params = similarity.AlignParams(**pipeline.field_values(similarity.AlignParams, args))
    result = similarity.nw_align(args.seq_a, args.seq_b, params)
    sim = similarity.normalized_similarity(args.seq_a, args.seq_b, params)
    print(f"score: {result.score!r}")
    print(f"normalized similarity: {sim!r}")
    print(result.aligned_a)
    print(result.aligned_b)
    return 0


def _cmd_cluster(args) -> int:
    seqs = pipeline.read_sequences(args.input)
    with pipeline._parsing(args.input):
        for s in seqs:
            Peptide(s)  # validate early with a clear error
    clusters, reps = pipeline.cluster_sequences(seqs, args.threshold)
    pipeline.write_clusters(args.out, seqs, clusters, reps)
    return 0


def _cmd_census(args) -> int:
    census = corpus_mod.taste_census(pipeline.read_taste_corpus(args.corpus))
    textio.write_table(args.out, corpus_mod.CENSUS_COLUMNS, census.rows())
    if args.out:
        print(census.summary())
    return 0


_COMMANDS = {
    "design": _cmd_design,
    "toxtrain": _cmd_toxtrain,
    "toxpredict": _cmd_toxpredict,
    "toxbench": _cmd_toxbench,
    "physchem": _cmd_physchem,
    "encode": _cmd_encode,
    "align": _cmd_align,
    "cluster": _cmd_cluster,
    "census": _cmd_census,
}


def main(argv=None) -> int:
    try:
        # argument types raise ConfigError, which exits 2 like argparse's own errors
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except PeptasteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
