"""Command-line entry point: each subcommand parses its arguments, calls
the library and prints; the checks of splits and ledgers live there.

Exit status contract: 0 on success, 1 when any experiment cell failed or
a report was refused (see `pipeline.finished_ledger`), 2 on configuration
errors including bad flags, unreadable inputs and a split that leaves
train or test empty, and when another run is using the output directory;
141 (128 + SIGPIPE, as a shell reports it) when stdout's reader has gone.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import analysis, bleu, corpus, pipeline, sampling, trainer


def _print_matrix(
    title: str, scores: dict[tuple[str, str], float], decimals: int
) -> None:
    langs = list(analysis.ROMANCE_LANGS)
    print(title)
    print("      " + "".join(f"{l:>8}" for l in langs))
    for src in langs:
        cells = []
        for tgt in langs:
            if src == tgt:
                cells.append(f"{'-':>8}")
            else:
                cells.append(f"{scores[(src, tgt)]:>8.{decimals}f}")
        print(f"{src:<6}" + "".join(cells))
    print()


def _cmd_tables(args: argparse.Namespace) -> int:
    written, spoken = analysis.embedded_matrices()
    if args.which in ("written", "all"):
        _print_matrix("written intelligibility (source -> target)", written.scores, 2)
    if args.which in ("spoken", "all"):
        _print_matrix("spoken intelligibility (source -> target)", spoken.scores, 1)
    if args.which in ("auc", "all"):
        _print_matrix(
            "reference learning-curve AUC (source -> target)",
            analysis.embedded_reference_auc(),
            2,
        )
    return 0


def _cmd_build_corpus(args: argparse.Namespace) -> int:
    bitext_a = corpus.load_pivot_bitext(args.pivot_a, args.target_a, args.lang_a)
    bitext_b = corpus.load_pivot_bitext(args.pivot_b, args.target_b, args.lang_b)
    pair = corpus.build_parallel(bitext_a, bitext_b)
    spec = corpus.SplitSpec(dev_ratio=args.dev_ratio, test_ratio=args.test_ratio, seed=args.seed)
    train, dev, test = corpus.split_pair(pair, spec)
    corpus.write_split_bundle(args.out, pair.src, pair.tgt, train, dev, test, spec)
    print(
        f"{pair.src}-{pair.tgt}: {len(pair)} matched pairs -> "
        f"{len(train)} train / {len(dev)} dev / {len(test)} test in {args.out}"
    )
    return 0


def _cmd_subsample(args: argparse.Namespace) -> int:
    [manifest] = sampling.subsample(
        args.n_train, [args.fraction], args.seed, src=args.src, tgt=args.tgt
    )
    if args.out:
        corpus.write_text_atomic(Path(args.out), manifest.to_json() + "\n")
    else:
        print(manifest.to_json())
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    pairs = corpus.read_pairs_tsv(args.train)
    if args.subset:
        subset = sampling.SubsetManifest.read(args.subset)
        if subset.n_train != len(pairs):
            raise ValueError(
                f"subset was made for {subset.n_train} pairs but "
                f"{args.train} has {len(pairs)}"
            )
        pairs = trainer.Model1Corpus(pairs).subset(subset.indices)
    table = trainer.train_model1(pairs, args.iterations)
    src_lines = corpus.read_lines(args.test_src)
    hyps = [trainer.decode(table, line) for line in src_lines]
    corpus.write_text_atomic(Path(args.hyp_out), "\n".join(hyps) + "\n")
    print(
        f"trained on {len(pairs)} pairs ({args.iterations} EM iterations), "
        f"wrote {len(hyps)} hypotheses to {args.hyp_out}"
    )
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    hyps = corpus.read_lines(args.hyp)
    refs = corpus.read_lines(args.ref)
    result = bleu.corpus_bleu(hyps, refs)
    if args.json:
        print(result.to_json())
    else:
        print(f"BLEU = {result.score:.2f}")
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    raw = analysis.read_scores_csv(Path(args.scores).read_text(encoding="utf-8"))
    text = analysis.curves_to_csv(analysis.relative_curves(raw))
    if args.out:
        corpus.write_text_atomic(Path(args.out), text)
    else:
        print(text, end="")
    return 0


def _cmd_auc(args: argparse.Namespace) -> int:
    for curve in analysis.read_curves_csv(Path(args.curve).read_text(encoding="utf-8")):
        prefix = f"{analysis.pair_str(curve.pair_id)}\t" if curve.pair_id else ""
        print(f"{prefix}{analysis.auc_trapezoid(curve)!r}")
    return 0


def _auc_from_source(source: str) -> dict[tuple[str, str], float]:
    """AUC values from the reference table or from a curves CSV."""
    if source == "table3":
        return analysis.embedded_reference_auc()
    curves = analysis.read_curves_csv(Path(source).read_text(encoding="utf-8"))
    if any(curve.pair_id is None for curve in curves):
        raise ValueError(f"curves in {source} need pair labels for correlation")
    return {curve.pair_id: analysis.auc_trapezoid(curve) for curve in curves}


def _cmd_correlate(args: argparse.Namespace) -> int:
    auc_by_pair = _auc_from_source(args.auc)
    written, spoken = analysis.embedded_matrices()
    matrix = written if args.against == "written" else spoken
    points = analysis.build_scatter(auc_by_pair, matrix)
    sources = sorted({p.pair_id[0] for p in points})
    if args.exclude_source not in (None, *sources):
        raise ValueError(
            f"--exclude-source {args.exclude_source!r} is no pair's source; "
            f"the sources are {', '.join(sources)}"
        )
    points = analysis.filter_by_source(points, args.exclude_source)
    r = analysis.pearson(
        [p.auc for p in points], [p.intelligibility for p in points]
    )
    label = f"{args.against}"
    if args.exclude_source:
        label += f", excluding source {args.exclude_source}"
    print(f"r = {r:.3f}  (AUC vs {label}, n = {len(points)})")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    manifest = pipeline.load_manifest(args.manifest)
    if args.jobs is not None:
        manifest = dataclasses.replace(manifest, max_parallel_jobs=args.jobs)
    ledger = pipeline.run_experiment(manifest)
    done = sum(1 for c in ledger.cells.values() if c.status == "done")
    failed = ledger.failed()
    # Built before printing, so a closed stdout still gets a report.
    summary = None if failed else pipeline.build_report(
        ledger, manifest.matrices, manifest.output_dir
    )
    print(f"{done}/{len(ledger.cells)} cells done in {manifest.output_dir}")
    for cell in failed:
        print(
            f"FAILED {cell.src}-{cell.tgt} @ {pipeline.fraction_slug(cell.fraction)}: "
            f"{cell.error}",
            file=sys.stderr,
        )
    if failed:
        return 1
    print(f"report written to {manifest.output_dir} ({len(summary['auc'])} pairs)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    manifest = pipeline.load_manifest(args.manifest) if args.manifest else None
    if args.auc == "table3":
        if not args.out:  # a run's bundle would get AUCs its curves do not give
            raise pipeline.ManifestError("report --auc table3 needs --out")
        out = Path(args.out)
        matrices = manifest.matrices if manifest else analysis.embedded_matrices()
        summary = pipeline.report_from_auc(analysis.embedded_reference_auc(), matrices, out)
    elif manifest is None:
        raise pipeline.ManifestError("report --auc ledger needs --manifest")
    else:
        out = Path(args.out) if args.out else manifest.output_dir
        summary = pipeline.build_report(pipeline.finished_ledger(manifest), manifest.matrices, out)

    print(f"report written to {out}")
    for view, _, _ in analysis.VIEWS:
        value = summary[f"pearson_{view}"]
        print(f"pearson_{view} = " + (f"{value:.3f}" if value is not None else "undefined"))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtlearn",
        description="Benchmark how easily language pairs are learned by "
        "machine translation: pivot-aligned corpora, nested subsets, "
        "learning curves, AUC, and intelligibility correlations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-corpus", help="align two pivot bitexts and split")
    p.add_argument("--lang-a", required=True)
    p.add_argument("--pivot-a", required=True)
    p.add_argument("--target-a", required=True)
    p.add_argument("--lang-b", required=True)
    p.add_argument("--pivot-b", required=True)
    p.add_argument("--target-b", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dev-ratio", type=float, default=0.1)
    p.add_argument("--test-ratio", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_build_corpus)

    p = sub.add_parser("subsample", help="emit a nested training-subset manifest")
    p.add_argument("--n-train", type=int, required=True)
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--src")
    p.add_argument("--tgt")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_subsample)

    p = sub.add_parser("train", help="train the builtin model and decode a test set")
    p.add_argument("--train", required=True, help="2-column TSV of (src, tgt)")
    p.add_argument("--test-src", required=True, help="source sentences, one per line")
    p.add_argument("--hyp-out", required=True)
    p.add_argument("--iterations", type=int, default=5)
    p.add_argument("--subset", help="subset manifest restricting the train rows")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("score", help="corpus BLEU of hypotheses against references")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--json", action="store_true", help="print full statistics")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("curve", help="relative-BLEU curves from a scores CSV")
    p.add_argument("--scores", required=True, help="CSV with header pair,fraction,bleu")
    p.add_argument("--out", help="write curves CSV here instead of stdout")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("auc", help="trapezoidal AUC of curves in a curves CSV")
    p.add_argument("--curve", required=True)
    p.set_defaults(func=_cmd_auc)

    p = sub.add_parser("correlate", help="Pearson r of AUC against intelligibility")
    p.add_argument("--auc", required=True, help="'table3' or a curves CSV path")
    p.add_argument("--against", choices=("written", "spoken"), required=True)
    p.add_argument("--exclude-source", help="drop pairs with this source language")
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("run", help="run the full experiment grid from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--jobs", type=int, help="override max_parallel_jobs")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="build the report bundle from a ledger")
    p.add_argument("--manifest")
    p.add_argument("--auc", choices=("ledger", "table3"), default="ledger")
    p.add_argument("--out", help="report directory (for ledger, defaults to the manifest output_dir)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("tables", help="print the embedded reference tables")
    p.add_argument("--which", choices=("written", "spoken", "auc", "all"), default="all")
    p.set_defaults(func=_cmd_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; keep both.
        return 0 if exc.code in (0, None) else 2
    try:
        rc = args.func(args)
        sys.stdout.flush()  # a pipe buffers short output; fail here, not at exit
        return rc
    except BrokenPipeError:
        # Nobody reads what is left; let the flush at exit write it nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except pipeline.RunInProgressError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except pipeline.LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
