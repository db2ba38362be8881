"""Learning-curve analysis and correlation with intelligibility data.

This layer is pure arithmetic: raw (fraction, BLEU) points become
relative-BLEU learning curves, curves become trapezoidal AUC values, and
AUC values are correlated against the embedded mutual-intelligibility
matrices with Pearson's r. Reference matrices for the five Romance
languages are compiled in so everything here is testable without running
any training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

ROMANCE_LANGS = ("es", "pt", "it", "fr", "ro")

# The report's views as (view, medium, excluded source): each correlates
# AUC with its medium's matrix, leaving out the excluded source's pairs.
VIEWS = (
    ("written", "written", None),
    ("spoken", "spoken", None),
    ("spoken_excl_ro", "spoken", "ro"),
)

# Written-text mutual intelligibility, percent, source language → target
# language. Asymmetric by nature (reading Portuguese with Spanish skills
# is not the same task as the reverse).
_WRITTEN = {
    ("es", "pt"): 86.40, ("es", "it"): 77.37, ("es", "fr"): 68.86, ("es", "ro"): 59.97,
    ("pt", "es"): 84.56, ("pt", "it"): 75.33, ("pt", "fr"): 67.11, ("pt", "ro"): 64.54,
    ("it", "es"): 79.45, ("it", "pt"): 75.65, ("it", "fr"): 68.82, ("it", "ro"): 65.97,
    ("fr", "es"): 69.98, ("fr", "pt"): 63.15, ("fr", "it"): 72.93, ("fr", "ro"): 65.12,
    ("ro", "es"): 70.17, ("ro", "pt"): 65.57, ("ro", "it"): 69.15, ("ro", "fr"): 62.27,
}

# Spoken-language intelligibility from cloze tests, same orientation.
_SPOKEN = {
    ("es", "pt"): 35.7, ("es", "it"): 38.2, ("es", "fr"): 28.2, ("es", "ro"): 13.7,
    ("pt", "es"): 62.0, ("pt", "it"): 44.1, ("pt", "fr"): 34.3, ("pt", "ro"): 14.7,
    ("it", "es"): 56.0, ("it", "pt"): 23.4, ("it", "fr"): 18.6, ("it", "ro"): 8.7,
    ("fr", "es"): 31.5, ("fr", "pt"): 23.5, ("fr", "it"): 22.9, ("fr", "ro"): 11.0,
    ("ro", "es"): 46.6, ("ro", "pt"): 20.7, ("ro", "it"): 47.2, ("ro", "fr"): 47.1,
}

# Reference learning-curve AUC values for the same 20 pairs.
_REFERENCE_AUC = {
    ("es", "pt"): 74.71, ("es", "it"): 73.74, ("es", "fr"): 73.63, ("es", "ro"): 71.77,
    ("pt", "es"): 75.12, ("pt", "it"): 72.32, ("pt", "fr"): 72.83, ("pt", "ro"): 70.05,
    ("it", "es"): 74.34, ("it", "pt"): 73.32, ("it", "fr"): 72.69, ("it", "ro"): 71.71,
    ("fr", "es"): 72.89, ("fr", "pt"): 72.78, ("fr", "it"): 72.54, ("fr", "ro"): 69.94,
    ("ro", "es"): 71.87, ("ro", "pt"): 70.67, ("ro", "it"): 71.48, ("ro", "fr"): 70.48,
}


class CurvePoint(NamedTuple):
    fraction: float
    bleu: float
    relative: float


@dataclass(frozen=True)
class LearningCurve:
    """Relative-BLEU learning curve for one language pair.

    Points are ordered by strictly increasing fraction, the last fraction
    is 1.0, and relative values are bleu / bleu_at_full_data (exactly 1.0
    at fraction 1.0).
    """

    points: tuple[CurvePoint, ...]
    pair_id: tuple[str, str] | None = None

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a learning curve needs at least one point")
        fractions = [p.fraction for p in self.points]
        if any(b <= a for a, b in zip(fractions, fractions[1:])):
            raise ValueError(f"fractions must be strictly increasing: {fractions}")
        if fractions[-1] != 1.0:
            raise ValueError("curve must end at fraction 1.0")
        if self.points[-1].relative != 1.0:
            raise ValueError("relative BLEU at fraction 1.0 must be exactly 1.0")


@dataclass(frozen=True)
class IntelligibilityMatrix:
    """Directed intelligibility scores for 5 languages, diagonal absent."""

    medium: str
    scores: dict[tuple[str, str], float]

    def __post_init__(self) -> None:
        if self.medium not in ("written", "spoken"):
            raise ValueError(f"medium must be 'written' or 'spoken': {self.medium!r}")
        if len(self.scores) != 20:
            raise ValueError(f"expected 20 off-diagonal entries, got {len(self.scores)}")
        for (src, tgt), value in self.scores.items():
            if src == tgt:
                raise ValueError(f"diagonal entry {src}->{tgt} not allowed")
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"score for {src}->{tgt} must be positive and finite: {value}")


@dataclass(frozen=True)
class ScatterPoint:
    pair_id: tuple[str, str]
    auc: float
    intelligibility: float
    medium: str


def relative_curve(
    raw: list[tuple[float, float]], pair_id: tuple[str, str] | None = None
) -> LearningCurve:
    """Build a LearningCurve from raw (fraction, bleu) points.

    Points are sorted by fraction and each BLEU value is divided by the
    BLEU at fraction 1.0, so a model reaching 24 with half the data and 30
    with all of it gets relatives 0.8 and 1.0. A ValueError names
    ``pair_id`` when it is given.
    """
    pair = f"pair {pair_str(pair_id)}: " if pair_id else ""
    if not raw:
        raise ValueError(f"{pair}no curve points given")
    ordered = sorted(raw)
    fractions = [f for f, _ in ordered]
    if len(set(fractions)) != len(fractions):
        raise ValueError(f"{pair}duplicate fractions in curve: {fractions}")
    if fractions[-1] != 1.0:
        raise ValueError(f"{pair}curve is missing the fraction-1.0 point")
    full_bleu = ordered[-1][1]
    if full_bleu == 0:
        raise ValueError(f"{pair}BLEU at fraction 1.0 is 0; relative curve undefined")
    points = tuple(
        CurvePoint(fraction=f, bleu=b, relative=b / full_bleu) for f, b in ordered
    )
    return LearningCurve(points=points, pair_id=pair_id)


def relative_curves(
    raw_by_pair: dict[tuple[str, str], list[tuple[float, float]]]
) -> list[LearningCurve]:
    """The relative curve of each pair, in pair order."""
    return [relative_curve(raw_by_pair[pair], pair_id=pair) for pair in sorted(raw_by_pair)]


def auc_trapezoid(curve: LearningCurve) -> float:
    """Trapezoidal area under the relative-BLEU curve.

    The x-axis is the fraction expressed in percent, so the full 0.2-1.0
    grid spans [20, 100] and a curve pinned at relative 1.0 throughout has
    area exactly 80. There is no extrapolation below the first point.
    """
    if len(curve.points) < 2:
        raise ValueError("AUC needs at least 2 curve points")
    total = 0.0
    for a, b in zip(curve.points, curve.points[1:]):
        x0 = a.fraction * 100.0
        x1 = b.fraction * 100.0
        total += (x1 - x0) * (a.relative + b.relative) / 2.0
    return total


def pearson(xs: list[float], ys: list[float]) -> float:
    """Pearson product-moment correlation of two equal-length samples.

    Inputs must be finite, with at least 3 values and nonzero variance.
    The result is clamped to [-1, 1] to absorb last-bit rounding on exactly
    collinear data.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 3:
        raise ValueError(f"need at least 3 points for a correlation, got {n}")
    if not all(math.isfinite(v) for v in (*xs, *ys)):
        raise ValueError("non-finite value; correlation undefined")
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    dx = [x - mean_x for x in xs]
    dy = [y - mean_y for y in ys]
    var_x = math.fsum(d * d for d in dx)
    var_y = math.fsum(d * d for d in dy)
    if var_x == 0.0 or var_y == 0.0:
        raise ValueError("zero variance; correlation undefined")
    r = math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(var_x * var_y)
    return max(-1.0, min(1.0, r))


def filter_by_source(
    points: list[ScatterPoint], excluded: str | None
) -> list[ScatterPoint]:
    """Drop scatter points whose source language is `excluded` (None drops none)."""
    return [p for p in points if p.pair_id[0] != excluded]


def build_scatter(
    auc_by_pair: dict[tuple[str, str], float], matrix: IntelligibilityMatrix
) -> list[ScatterPoint]:
    """Pair AUC values with matrix scores for pairs present in both.

    Points come out in lexicographic pair order, which keeps downstream
    CSV output stable across runs.
    """
    return [
        ScatterPoint(
            pair_id=pair,
            auc=auc_by_pair[pair],
            intelligibility=matrix.scores[pair],
            medium=matrix.medium,
        )
        for pair in sorted(auc_by_pair)
        if pair in matrix.scores
    ]


def embedded_matrices() -> tuple[IntelligibilityMatrix, IntelligibilityMatrix]:
    """Return the (written, spoken) reference intelligibility matrices."""
    return (
        IntelligibilityMatrix(medium="written", scores=dict(_WRITTEN)),
        IntelligibilityMatrix(medium="spoken", scores=dict(_SPOKEN)),
    )


def embedded_reference_auc() -> dict[tuple[str, str], float]:
    """Return the published learning-curve AUC values for the 20 pairs."""
    return dict(_REFERENCE_AUC)


# ---------------------------------------------------------------------------
# CSV serialization. Floats are written with repr() so values round-trip
# exactly and output is byte-stable across runs.
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return repr(float(value))


def pair_str(pair_id: tuple[str, str]) -> str:
    return f"{pair_id[0]}-{pair_id[1]}"


def parse_pair(text: str) -> tuple[str, str]:
    parts = text.split("-")
    if len(parts) != 2 or not all(parts):
        raise ValueError(f"malformed pair {text!r}; expected 'src-tgt'")
    return (parts[0], parts[1])


def curves_to_csv(curves: list[LearningCurve]) -> str:
    lines = ["pair,fraction,bleu,relative"]
    for curve in curves:
        pair = pair_str(curve.pair_id) if curve.pair_id else ""
        for p in curve.points:
            lines.append(f"{pair},{_fmt(p.fraction)},{_fmt(p.bleu)},{_fmt(p.relative)}")
    return "\n".join(lines) + "\n"


def scores_to_csv(raw_by_pair: dict[tuple[str, str], list[tuple[float, float]]]) -> str:
    """A scores CSV (pair,fraction,bleu): rows in pair order, then fraction order."""
    lines = ["pair,fraction,bleu"]
    for pair in sorted(raw_by_pair):
        for fraction, bleu in sorted(raw_by_pair[pair]):
            lines.append(f"{pair_str(pair)},{_fmt(fraction)},{_fmt(bleu)}")
    return "\n".join(lines) + "\n"


def _read_raw_points(text: str, header: str) -> dict[str, list[tuple[float, float]]]:
    """(fraction, bleu) points of a CSV whose first three columns are
    pair,fraction,bleu, grouped by the pair column in appearance order.
    Both numbers must be finite."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"bad or missing header; expected {header}")
    columns = header.count(",") + 1
    raw_by_pair: dict[str, list[tuple[float, float]]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != columns:
            raise ValueError(f"line {lineno}: expected {columns} columns, got {len(cells)}")
        point = (float(cells[1]), float(cells[2]))
        if not all(map(math.isfinite, point)):
            raise ValueError(f"line {lineno}: fraction and BLEU must be finite: {line!r}")
        raw_by_pair.setdefault(cells[0], []).append(point)
    return raw_by_pair


def read_scores_csv(text: str) -> dict[tuple[str, str], list[tuple[float, float]]]:
    """Parse a scores CSV (pair,fraction,bleu) into raw points by pair."""
    return {
        parse_pair(pair): raw
        for pair, raw in _read_raw_points(text, "pair,fraction,bleu").items()
    }


def read_curves_csv(text: str) -> list[LearningCurve]:
    """Parse a curves CSV back into LearningCurve objects.

    Rows are grouped by the pair column (appearance order); relatives are
    recomputed from the raw BLEU values rather than trusted from the file.
    """
    raw_by_pair = _read_raw_points(text, "pair,fraction,bleu,relative")
    return [
        relative_curve(raw, pair_id=parse_pair(pair) if pair else None)
        for pair, raw in raw_by_pair.items()
    ]


def auc_to_csv(auc_by_pair: dict[tuple[str, str], float]) -> str:
    """An AUC CSV (pair,auc) in pair order."""
    lines = ["pair,auc"]
    lines += [f"{pair_str(pair)},{_fmt(auc_by_pair[pair])}" for pair in sorted(auc_by_pair)]
    return "\n".join(lines) + "\n"


def scatter_to_csv(points: list[ScatterPoint], excluded_source: str | None = None) -> str:
    """Serialize scatter points, flagging rows excluded from correlation."""
    lines = ["pair,auc,intelligibility,medium,excluded"]
    for p in points:
        excluded = p.pair_id[0] == excluded_source
        lines.append(
            f"{pair_str(p.pair_id)},{_fmt(p.auc)},{_fmt(p.intelligibility)},"
            f"{p.medium},{str(excluded).lower()}"
        )
    return "\n".join(lines) + "\n"
