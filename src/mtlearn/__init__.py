"""mtlearn: measure how easily machine translation learns a language pair.

The toolkit builds pivot-aligned parallel corpora, trains models on nested
fractions of the training data, turns the resulting BLEU scores into
relative learning curves and their trapezoidal AUC, and correlates AUC
against embedded mutual-intelligibility matrices for five Romance
languages.

Modules:
    corpus    - pivot-aligned bitext construction, splits, TSV I/O
    sampling  - deterministic nested subsets over the fraction grid
    trainer   - builtin IBM Model 1 EM trainer + external adapter
    bleu      - self-contained corpus-level BLEU
    analysis  - curves, AUC, Pearson correlation, embedded matrices
    charts    - dependency-free SVG line/scatter charts
    synthetic - cipher-language family with known vocabulary overlap
    pipeline  - manifest-driven end-to-end runs with resume + reports
    cli       - the `mtlearn` command
"""

from .analysis import (
    AucScore,
    IntelligibilityMatrix,
    LearningCurve,
    ScatterPoint,
    auc_trapezoid,
    build_scatter,
    embedded_matrices,
    embedded_reference_auc,
    filter_by_source,
    pearson,
    relative_curve,
)
from .bleu import BleuScore, corpus_bleu, tokenize_13a
from .corpus import (
    ParallelPair,
    PivotBitext,
    SplitSpec,
    build_parallel,
    load_pivot_bitext,
    normalize_pivot,
    split_pair,
)
from .pipeline import (
    ExperimentManifest,
    RunLedger,
    build_report,
    load_manifest,
    run_experiment,
)
from .sampling import FRACTION_GRID, SubsetManifest, subsample
from .trainer import (
    LexicalTable,
    TrainerSpec,
    decode,
    run_external,
    train_model1,
)

__version__ = "0.1.0"

__all__ = [
    "AucScore",
    "BleuScore",
    "ExperimentManifest",
    "FRACTION_GRID",
    "IntelligibilityMatrix",
    "LearningCurve",
    "LexicalTable",
    "ParallelPair",
    "PivotBitext",
    "RunLedger",
    "ScatterPoint",
    "SplitSpec",
    "SubsetManifest",
    "TrainerSpec",
    "auc_trapezoid",
    "build_parallel",
    "build_report",
    "build_scatter",
    "corpus_bleu",
    "decode",
    "embedded_matrices",
    "embedded_reference_auc",
    "filter_by_source",
    "load_manifest",
    "load_pivot_bitext",
    "normalize_pivot",
    "pearson",
    "relative_curve",
    "run_experiment",
    "run_external",
    "split_pair",
    "subsample",
    "tokenize_13a",
    "train_model1",
    "__version__",
]
