"""Tests for curve normalization, AUC, correlation, and embedded tables."""

import math
import random

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from mtlearn import analysis

PAIRS_20 = [
    (a, b)
    for a in analysis.ROMANCE_LANGS
    for b in analysis.ROMANCE_LANGS
    if a != b
]


def random_raw_curve(rnd, n_points=None):
    """Raw (fraction, bleu) points on a random grid ending at 1.0."""
    n = n_points or rnd.randrange(2, 9)
    fractions = sorted(rnd.sample([i / 20 for i in range(1, 20)], n - 1)) + [1.0]
    return [(f, rnd.uniform(0.5, 60.0)) for f in fractions]


class TestRelativeCurve:
    def test_half_data_example(self):
        curve = analysis.relative_curve([(0.5, 24.0), (1.0, 30.0)])
        assert curve.points[0].relative == 0.8
        assert curve.points[1].relative == 1.0

    def test_input_order_irrelevant(self):
        a = analysis.relative_curve([(1.0, 30.0), (0.5, 24.0), (0.2, 12.0)])
        b = analysis.relative_curve([(0.2, 12.0), (0.5, 24.0), (1.0, 30.0)])
        assert a.points == b.points
        assert [p.fraction for p in a.points] == [0.2, 0.5, 1.0]

    def test_full_data_always_exactly_one(self):
        rnd = random.Random(11)
        for _ in range(50):
            curve = analysis.relative_curve(random_raw_curve(rnd))
            assert curve.points[-1].fraction == 1.0
            assert curve.points[-1].relative == 1.0

    def test_scale_invariance(self):
        raw = [(0.2, 5.0), (0.6, 12.0), (1.0, 20.0)]
        scaled = [(f, 3.5 * b) for f, b in raw]
        a = analysis.relative_curve(raw)
        b = analysis.relative_curve(scaled)
        for pa, pb in zip(a.points, b.points):
            assert pa.relative == pytest.approx(pb.relative, abs=1e-15)

    def test_raw_bleu_preserved(self):
        curve = analysis.relative_curve([(0.5, 24.0), (1.0, 30.0)], pair_id=("es", "pt"))
        assert [p.bleu for p in curve.points] == [24.0, 30.0]
        assert curve.pair_id == ("es", "pt")

    def test_single_point_curve(self):
        curve = analysis.relative_curve([(1.0, 17.0)])
        assert curve.points == (analysis.CurvePoint(1.0, 17.0, 1.0),)

    def test_errors(self):
        # An error names the pair when the curve has one.
        for pair_id, prefix in ((None, ""), (("es", "pt"), "pair es-pt: ")):
            with pytest.raises(ValueError, match=f"^{prefix}no curve points"):
                analysis.relative_curve([], pair_id=pair_id)
            with pytest.raises(ValueError, match=f"^{prefix}duplicate"):
                analysis.relative_curve(
                    [(0.5, 10.0), (0.5, 11.0), (1.0, 12.0)], pair_id=pair_id
                )
            with pytest.raises(ValueError, match=f"^{prefix}curve is missing the fraction-1.0"):
                analysis.relative_curve([(0.2, 10.0), (0.9, 12.0)], pair_id=pair_id)
            with pytest.raises(ValueError, match=f"^{prefix}BLEU at fraction 1.0 is 0"):
                analysis.relative_curve([(0.5, 10.0), (1.0, 0.0)], pair_id=pair_id)

    def test_learning_curve_validation(self):
        good = (analysis.CurvePoint(1.0, 5.0, 1.0),)
        analysis.LearningCurve(points=good)
        with pytest.raises(ValueError, match="at least one point"):
            analysis.LearningCurve(points=())
        with pytest.raises(ValueError, match="strictly increasing"):
            analysis.LearningCurve(
                points=(
                    analysis.CurvePoint(0.5, 5.0, 0.5),
                    analysis.CurvePoint(0.5, 6.0, 0.6),
                    analysis.CurvePoint(1.0, 10.0, 1.0),
                )
            )
        with pytest.raises(ValueError, match="end at fraction 1.0"):
            analysis.LearningCurve(points=(analysis.CurvePoint(0.9, 5.0, 1.0),))
        with pytest.raises(ValueError, match="exactly 1.0"):
            analysis.LearningCurve(points=(analysis.CurvePoint(1.0, 5.0, 0.99),))


class TestAucTrapezoid:
    def test_constant_curve_is_exactly_80(self):
        raw = [(f / 10, 30.0) for f in range(2, 11)]
        curve = analysis.relative_curve(raw)
        assert analysis.auc_trapezoid(curve) == 80.0

    def test_linear_curve_is_exactly_48(self):
        # relative(f) = f over [0.2, 1.0]: area = (1.0^2 - 0.2^2) / 2 * 100
        raw = [(f / 10, 30.0 * f / 10) for f in range(2, 11)]
        curve = analysis.relative_curve(raw)
        assert analysis.auc_trapezoid(curve) == 48.0

    def test_two_point_rectangle(self):
        curve = analysis.relative_curve([(0.5, 30.0), (1.0, 30.0)])
        assert analysis.auc_trapezoid(curve) == pytest.approx(50.0, abs=1e-12)

    def test_matches_numpy_trapezoid(self):
        rnd = random.Random(23)
        for _ in range(50):
            curve = analysis.relative_curve(random_raw_curve(rnd))
            xs = [p.fraction * 100.0 for p in curve.points]
            ys = [p.relative for p in curve.points]
            expected = float(np.trapezoid(ys, xs))
            assert analysis.auc_trapezoid(curve) == pytest.approx(
                expected, abs=1e-9
            )

    def test_matches_fine_grained_riemann_sum(self):
        # Piecewise-linear interpolation integrated with tiny rectangles
        # converges to the trapezoid value; a 2m-step midpoint rule on a
        # piecewise-linear function is exact up to rounding.
        rnd = random.Random(29)
        for _ in range(10):
            curve = analysis.relative_curve(random_raw_curve(rnd))
            xs = [p.fraction * 100.0 for p in curve.points]
            ys = [p.relative for p in curve.points]
            steps = 200_000
            width = (xs[-1] - xs[0]) / steps
            total = 0.0
            for k in range(steps):
                x = xs[0] + (k + 0.5) * width
                total += float(np.interp(x, xs, ys)) * width
            assert analysis.auc_trapezoid(curve) == pytest.approx(
                total, abs=1e-6
            )

    def test_single_point_rejected(self):
        curve = analysis.relative_curve([(1.0, 17.0)])
        with pytest.raises(ValueError, match="at least 2"):
            analysis.auc_trapezoid(curve)


class TestPearson:
    def test_perfect_correlations(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert analysis.pearson(xs, [2 * x + 1 for x in xs]) == 1.0
        assert analysis.pearson(xs, [-3 * x + 7 for x in xs]) == -1.0

    def test_matches_scipy(self):
        rnd = random.Random(31)
        for _ in range(50):
            n = rnd.randrange(3, 40)
            xs = [rnd.gauss(0, 5) for _ in range(n)]
            ys = [0.3 * x + rnd.gauss(0, 2) for x in xs]
            expected = scipy.stats.pearsonr(xs, ys).statistic
            assert analysis.pearson(xs, ys) == pytest.approx(expected, abs=1e-12)

    def test_affine_invariance(self):
        rnd = random.Random(37)
        xs = [rnd.uniform(0, 10) for _ in range(15)]
        ys = [rnd.uniform(0, 10) for _ in range(15)]
        base = analysis.pearson(xs, ys)
        shifted = analysis.pearson([4 * x - 2 for x in xs], [0.5 * y + 9 for y in ys])
        assert shifted == pytest.approx(base, abs=1e-12)
        flipped = analysis.pearson([-x for x in xs], ys)
        assert flipped == pytest.approx(-base, abs=1e-12)

    def test_symmetry(self):
        xs = [1.0, 5.0, 2.0, 8.0]
        ys = [3.0, 1.0, 4.0, 2.0]
        assert analysis.pearson(xs, ys) == analysis.pearson(ys, xs)

    def test_result_clamped_to_unit_interval(self):
        rnd = random.Random(41)
        for _ in range(200):
            n = rnd.randrange(3, 8)
            xs = [rnd.uniform(0, 1) for _ in range(n)]
            ys = [rnd.uniform(0, 1) for _ in range(n)]
            try:
                r = analysis.pearson(xs, ys)
            except ValueError:
                continue  # zero variance is possible in principle
            assert -1.0 <= r <= 1.0

    def test_errors(self):
        with pytest.raises(ValueError, match="length mismatch"):
            analysis.pearson([1.0, 2.0, 3.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="at least 3"):
            analysis.pearson([1.0, 2.0], [3.0, 4.0])
        with pytest.raises(ValueError, match="zero variance"):
            analysis.pearson([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_are_refused(self, bad):
        # min(1.0, nan) is 1.0: the clamp alone turned a NaN r into 1.
        with pytest.raises(ValueError, match="non-finite"):
            analysis.pearson([1.0, 2.0, bad], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="non-finite"):
            analysis.pearson([1.0, 2.0, 3.0], [bad, 2.0, 3.0])


    # Zero or a magnitude in [1e-6, 1e6]: times 2**k for |k| <= 900 it stays
    # a normal float, so the scaled sample is exactly the scaled input.
    _value = st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6))

    @given(
        st.lists(st.tuples(_value, _value), min_size=3, max_size=30),
        st.integers(-900, 900),
        st.booleans(),
    )
    def test_a_power_of_two_scale_leaves_r_exactly(self, points, k, scale_x):
        # The scale of either sample, however large or small, must not move
        # r by a bit: not by overflow, not by underflow, not by rounding.
        xs, ys = [x for x, _ in points], [y for _, y in points]
        scaled = [v * 2.0**k for v in (xs if scale_x else ys)]
        args = (scaled, ys) if scale_x else (xs, scaled)
        try:
            expected = analysis.pearson(xs, ys)
        except ValueError:
            with pytest.raises(ValueError, match="zero variance"):
                analysis.pearson(*args)
            return
        assert analysis.pearson(*args) == expected


class TestEmbeddedTables:
    def test_written_spot_values(self):
        written, _ = analysis.embedded_matrices()
        assert written.medium == "written"
        assert written.scores[("es", "pt")] == 86.40
        assert written.scores[("ro", "fr")] == 62.27
        assert written.scores[("fr", "it")] == 72.93

    def test_spoken_spot_values(self):
        _, spoken = analysis.embedded_matrices()
        assert spoken.medium == "spoken"
        assert spoken.scores[("es", "pt")] == 35.7
        assert spoken.scores[("pt", "es")] == 62.0
        assert spoken.scores[("it", "ro")] == 8.7
        assert spoken.scores[("ro", "fr")] == 47.1

    def test_reference_auc_spot_values(self):
        auc = analysis.embedded_reference_auc()
        assert auc[("es", "pt")] == 74.71
        assert auc[("pt", "es")] == 75.12
        assert auc[("fr", "ro")] == 69.94
        assert auc[("ro", "fr")] == 70.48

    def test_all_tables_cover_the_20_ordered_pairs(self):
        written, spoken = analysis.embedded_matrices()
        auc = analysis.embedded_reference_auc()
        assert set(written.scores) == set(PAIRS_20)
        assert set(spoken.scores) == set(PAIRS_20)
        assert set(auc) == set(PAIRS_20)
        for table in (written.scores, spoken.scores, auc):
            assert all(v > 0 for v in table.values())

    def test_returned_copies_are_independent(self):
        first, _ = analysis.embedded_matrices()
        first.scores[("es", "pt")] = -1.0  # mutate the copy
        second, _ = analysis.embedded_matrices()
        assert second.scores[("es", "pt")] == 86.40
        auc = analysis.embedded_reference_auc()
        auc[("es", "pt")] = -1.0
        assert analysis.embedded_reference_auc()[("es", "pt")] == 74.71

    def test_matrix_validation(self):
        scores = {p: 1.0 for p in PAIRS_20}
        analysis.IntelligibilityMatrix(medium="written", scores=scores)
        with pytest.raises(ValueError, match="medium"):
            analysis.IntelligibilityMatrix(medium="telepathic", scores=scores)
        with pytest.raises(ValueError, match="20"):
            analysis.IntelligibilityMatrix(
                medium="written", scores={("es", "pt"): 1.0}
            )
        bad = dict(scores)
        del bad[("es", "pt")]
        bad[("es", "es")] = 1.0
        with pytest.raises(ValueError, match="diagonal"):
            analysis.IntelligibilityMatrix(medium="written", scores=bad)
        neg = dict(scores)
        neg[("es", "pt")] = 0.0
        with pytest.raises(ValueError, match="positive"):
            analysis.IntelligibilityMatrix(medium="written", scores=neg)


class TestFilterAndScatter:
    def test_filter_by_source_removes_four(self):
        written, _ = analysis.embedded_matrices()
        points = analysis.build_scatter(analysis.embedded_reference_auc(), written)
        kept = analysis.filter_by_source(points, "ro")
        assert len(kept) == 16
        assert all(p.pair_id[0] != "ro" for p in kept)
        assert any(p.pair_id == ("es", "ro") for p in kept)  # targets stay

    def test_filter_no_op_and_idempotent(self):
        written, _ = analysis.embedded_matrices()
        points = analysis.build_scatter(analysis.embedded_reference_auc(), written)
        assert analysis.filter_by_source(points, "zz") == points
        once = analysis.filter_by_source(points, "ro")
        assert analysis.filter_by_source(once, "ro") == once

    def test_build_scatter_sorted_and_joined(self):
        written, _ = analysis.embedded_matrices()
        auc = analysis.embedded_reference_auc()
        points = analysis.build_scatter(auc, written)
        assert len(points) == 20
        assert [p.pair_id for p in points] == sorted(PAIRS_20)
        es_pt = next(p for p in points if p.pair_id == ("es", "pt"))
        assert es_pt.auc == 74.71
        assert es_pt.intelligibility == 86.40
        assert es_pt.medium == "written"

    def test_build_scatter_skips_pairs_missing_from_matrix(self):
        written, _ = analysis.embedded_matrices()
        auc = {("es", "pt"): 74.71, ("xx", "yy"): 50.0}
        points = analysis.build_scatter(auc, written)
        assert [p.pair_id for p in points] == [("es", "pt")]


class TestReferenceCorrelationRegression:
    """Pin the correlations the embedded tables actually produce.

    These are regression anchors for the published-table reproduction: the
    numbers come from running pearson() over the embedded AUC and
    intelligibility tables and are cross-checked against scipy here.
    """

    def correlate(self, medium, exclude_source=None):
        written, spoken = analysis.embedded_matrices()
        matrix = written if medium == "written" else spoken
        points = analysis.build_scatter(analysis.embedded_reference_auc(), matrix)
        if exclude_source is not None:
            points = analysis.filter_by_source(points, exclude_source)
        xs = [p.auc for p in points]
        ys = [p.intelligibility for p in points]
        r = analysis.pearson(xs, ys)
        assert r == pytest.approx(scipy.stats.pearsonr(xs, ys).statistic, abs=1e-12)
        return r

    def test_written_correlation(self):
        assert self.correlate("written") == pytest.approx(
            0.7963487888653411, abs=1e-9
        )

    def test_spoken_correlation(self):
        assert self.correlate("spoken") == pytest.approx(
            0.4920620011200588, abs=1e-9
        )

    def test_spoken_correlation_excluding_ro_sources(self):
        assert self.correlate("spoken", exclude_source="ro") == pytest.approx(
            0.7746280183774621, abs=1e-9
        )


class TestCsvRoundTrips:
    def make_curves(self):
        rnd = random.Random(43)
        return [
            analysis.relative_curve(random_raw_curve(rnd), pair_id=pair)
            for pair in [("es", "pt"), ("pt", "es"), ("it", "fr")]
        ]

    def test_curves_roundtrip(self):
        curves = self.make_curves()
        text = analysis.curves_to_csv(curves)
        assert text.startswith("pair,fraction,bleu,relative\n")
        back = analysis.read_curves_csv(text)
        assert len(back) == len(curves)
        for a, b in zip(curves, back):
            assert a.pair_id == b.pair_id
            assert a.points == b.points

    def test_read_curves_recomputes_relatives(self):
        text = (
            "pair,fraction,bleu,relative\n"
            "es-pt,0.5,24.0,999.0\n"  # bogus stored relative is ignored
            "es-pt,1.0,30.0,999.0\n"
        )
        (curve,) = analysis.read_curves_csv(text)
        assert curve.points[0].relative == 0.8

    def test_read_curves_errors(self):
        with pytest.raises(ValueError, match="header"):
            analysis.read_curves_csv("nope\n")
        with pytest.raises(ValueError, match="4 columns"):
            analysis.read_curves_csv("pair,fraction,bleu,relative\nes-pt,1.0\n")

    def test_read_scores_csv(self):
        raw = analysis.read_scores_csv(
            "pair,fraction,bleu\nes-pt,1.0,30.0\n\npt-es,0.5,2.5\nes-pt,0.5,24.0\n"
        )
        assert raw == {("es", "pt"): [(1.0, 30.0), (0.5, 24.0)], ("pt", "es"): [(0.5, 2.5)]}
        with pytest.raises(ValueError, match="header"):
            analysis.read_scores_csv("pair,fraction,bleu,relative\n")
        with pytest.raises(ValueError, match="line 2: expected 3 columns"):
            analysis.read_scores_csv("pair,fraction,bleu\nes-pt,1.0,30.0,1.0\n")
        with pytest.raises(ValueError, match="malformed pair"):
            analysis.read_scores_csv("pair,fraction,bleu\n,1.0,30.0\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_points_are_refused(self, value):
        with pytest.raises(ValueError, match="^line 3: fraction and BLEU must be finite: "):
            analysis.read_scores_csv(f"pair,fraction,bleu\nes-pt,1.0,30.0\nes-pt,0.5,{value}\n")
        with pytest.raises(ValueError, match="^line 2: fraction and BLEU must be finite: "):
            analysis.read_curves_csv(f"pair,fraction,bleu,relative\nes-pt,{value},30.0,1.0\n")

    def test_auc_csv(self):
        text = analysis.auc_to_csv({("ro", "fr"): 70.48, ("es", "pt"): 74.71})
        assert text == "pair,auc\nes-pt,74.71\nro-fr,70.48\n"

    def test_scatter_csv_marks_excluded_sources(self):
        written, _ = analysis.embedded_matrices()
        points = analysis.build_scatter(analysis.embedded_reference_auc(), written)
        text = analysis.scatter_to_csv(points, excluded_source="ro")
        lines = text.splitlines()
        assert lines[0] == "pair,auc,intelligibility,medium,excluded"
        assert len(lines) == 21
        flags = {line.split(",")[0]: line.split(",")[4] for line in lines[1:]}
        assert flags[("ro-fr")] == "true"
        assert flags[("es-ro")] == "false"
        assert sum(1 for v in flags.values() if v == "true") == 4

    def test_pair_str_roundtrip(self):
        assert analysis.pair_str(("es", "pt")) == "es-pt"
        assert analysis.parse_pair("es-pt") == ("es", "pt")
        with pytest.raises(ValueError, match="malformed"):
            analysis.parse_pair("espt")


class TestFloatFormatting:
    def test_csv_floats_survive_roundtrip_exactly(self):
        # repr-based formatting means every float parses back bit-identical
        rnd = random.Random(47)
        raw = [(f, rnd.uniform(0, 100)) for f in (0.2, 0.5, 1.0)]
        curve = analysis.relative_curve(raw, pair_id=("es", "pt"))
        (back,) = analysis.read_curves_csv(analysis.curves_to_csv([curve]))
        for a, b in zip(curve.points, back.points):
            assert a.bleu == b.bleu
            assert a.relative == b.relative


LANGS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=3)
PAIRS = st.tuples(LANGS, LANGS)


class TestReportFormatProperties:
    @given(
        st.dictionaries(
            PAIRS,
            st.lists(
                st.tuples(
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.floats(allow_nan=False, allow_infinity=False),
                ),
                min_size=1,
                max_size=6,
            ),
            max_size=5,
        )
    )
    def test_scores_csv_gives_back_each_pairs_sorted_points(self, raw):
        back = analysis.read_scores_csv(analysis.scores_to_csv(raw))
        assert back == {pair: sorted(points) for pair, points in raw.items()}

    @given(
        st.dictionaries(
            PAIRS,
            st.tuples(
                st.lists(
                    st.floats(min_value=0.01, max_value=0.99), unique=True, min_size=1, max_size=6
                ),
                st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=7, max_size=7),
            ),
            max_size=5,
        )
    )
    def test_auc_csv_rows_parse_back_to_the_trapezoid_areas(self, drawn):
        auc_by_pair = {}
        for pair, (fractions, bleus) in drawn.items():
            raw = list(zip(sorted(fractions) + [1.0], bleus))
            auc_by_pair[pair] = analysis.auc_trapezoid(analysis.relative_curve(raw))
        rows = analysis.auc_to_csv(auc_by_pair).splitlines()
        assert rows[0] == "pair,auc"
        parsed = [(analysis.parse_pair(p), float(a)) for p, a in (r.split(",") for r in rows[1:])]
        assert parsed == sorted(auc_by_pair.items())
