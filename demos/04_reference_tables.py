"""
Reference tables and intelligibility correlations
=================================================

The package embeds published measurements for five Romance languages:
written and spoken mutual intelligibility for all 20 directed pairs, plus
reference learning-curve AUC values from the original benchmark. This demo
reproduces the correlation analysis from those tables alone, without
training anything.

Run with: python3 demos/04_reference_tables.py
"""

import tempfile
from pathlib import Path

from mtlearn import analysis, pipeline

##############################################################################
# The matrices are directed: es -> pt asks how well Portuguese readers or
# listeners cope with Spanish, which is not the same as pt -> es.

written, spoken = analysis.embedded_matrices()
print("written es->pt:", written.scores[("es", "pt")])
print("written pt->es:", written.scores[("pt", "es")])
print("spoken  es->pt:", spoken.scores[("es", "pt")])
print("spoken  pt->es:", spoken.scores[("pt", "es")])

##############################################################################
# Reference AUC values pair up with either matrix to make a scatter, and
# Pearson r summarizes how well learnability tracks intelligibility.

auc = analysis.embedded_reference_auc()
for medium, matrix in (("written", written), ("spoken", spoken)):
    points = analysis.build_scatter(auc, matrix)
    r = analysis.pearson(
        [p.auc for p in points], [p.intelligibility for p in points]
    )
    print(f"\n{medium}: r = {r:.3f} over {len(points)} pairs")

##############################################################################
# Spoken Romanian is a known outlier (Romanian listeners understand the
# other languages far better than the reverse), so the analysis is usually
# repeated without ro-source pairs.

points = analysis.filter_by_source(analysis.build_scatter(auc, spoken), "ro")
r = analysis.pearson([p.auc for p in points], [p.intelligibility for p in points])
print(f"spoken without ro sources: r = {r:.3f} over {len(points)} pairs")

##############################################################################
# report_from_auc writes the complete correlation bundle (CSVs, SVG
# scatter plots, summary.json) for any AUC source, including these
# reference values. The same function serves live pipeline runs.

with tempfile.TemporaryDirectory(prefix="mtlearn_tables_") as tmp:
    out = Path(tmp) / "report"
    summary = pipeline.report_from_auc(auc, (written, spoken), out)
    print("\nwrote", sorted(p.name for p in out.iterdir() if p.is_file()))
print("summary pearson_written:", round(summary["pearson_written"], 3))
