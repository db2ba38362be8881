"""
Learning curves on a synthetic language family
==============================================

End-to-end experiment on ciphered languages whose pairwise difficulty is
known by construction. Languages that share more vocabulary should be
easier to translate between, and the learning-curve AUC should track that.

This demo uses a scaled-down family so it finishes in a few seconds; drop
the size overrides to reproduce the full benchmark.

Run with: python3 demos/03_learning_curves.py
"""

import tempfile
from pathlib import Path

from mtlearn import analysis, pipeline, synthetic

##############################################################################
# write_family generates five languages (aa..ee) as word ciphers of one
# shared pivot corpus. Each language rewrites a different fraction of the
# base vocabulary into its own forms, from 5% (aa) up to 60% (ee), so
# vocabulary overlap between any two languages is exactly computable.

tmp = tempfile.TemporaryDirectory(prefix="mtlearn_demo_")
workdir = Path(tmp.name)
info = synthetic.write_family(workdir, n_sentences=500, vocab_size=400)
print("family written to", workdir)

overlap = info["overlap"]
print("\nvocabulary overlap (fraction of base words shared):")
for (a, b) in [("aa", "bb"), ("aa", "ee"), ("dd", "ee")]:
    print(f"  {a}-{b}: {overlap[(a, b)]:.3f}")

##############################################################################
# The manifest the generator wrote drives the whole grid: 20 directed
# pairs, each trained at 9 nested fractions of its training data. Every
# cell trains the builtin IBM Model 1 trainer, decodes the test set, and
# scores it with corpus BLEU. Progress lands in a resumable ledger.

manifest = pipeline.load_manifest(info["manifest_path"])
ledger = pipeline.run_experiment(manifest)
done = sum(1 for c in ledger.cells.values() if c.status == "done")
print(f"\nran {done}/{len(ledger.cells)} cells")

##############################################################################
# The report turns raw scores into relative-BLEU curves (every curve ends
# at 1.0 by construction) and one trapezoidal AUC per pair. Higher AUC
# means the pair needed less data to approach its own ceiling.

summary = pipeline.build_report(ledger, manifest.matrices, manifest.output_dir)

print("\nAUC by pair (higher = learned from less data):")
for pair_name in ("aa-bb", "aa-ee", "dd-ee"):
    print(f"  {pair_name}: {summary['auc'][pair_name]:.2f}")

##############################################################################
# The known overlap gives an external check on the whole pipeline: AUC
# should correlate positively with overlap across the 20 pairs.

pairs = sorted(overlap)
r = analysis.pearson(
    [summary["auc"][analysis.pair_str(p)] for p in pairs],
    [overlap[p] for p in pairs],
)
print(f"\nPearson r between AUC and vocabulary overlap: {r:.3f}")
print("report bundle:", sorted(p.name for p in manifest.output_dir.iterdir()))
tmp.cleanup()
