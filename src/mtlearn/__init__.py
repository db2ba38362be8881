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

__version__ = "0.1.0"
