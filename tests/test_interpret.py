import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pathae.dataio import SurvivalTable
from pathae.errors import DataError
from pathae.interpret import (
    KMCurve,
    _diverging_colors,
    anpw,
    apply_survival_window,
    emit_clustermap,
    emit_featuremap,
    emit_km_plot,
    hierarchical_cluster,
    km_estimate,
    logrank_test,
    neural_path_weights,
    pca_2d,
    rank_pathways_by_mi,
    tercile_split,
    top_genes_by_anpw,
)
from pathae.models import ArchitectureConfig, PathwayMask, build_model, forward
from pathae.ndcore import RngStream, finite_diff_grad

from conftest import max_rel_err


def linear_stack(*weight_matrices):
    """Layer stacks for NPW tests: weights with zero biases."""
    return [(np.asarray(W, dtype=np.float64), np.zeros((1, np.asarray(W).shape[1])))
            for W in weight_matrices]


class TestNeuralPathWeights:
    def test_single_layer_is_weights(self):
        w = np.array([[0.5], [-1.5], [2.0]])
        np.testing.assert_array_equal(neural_path_weights(linear_stack(w)), [0.5, -1.5, 2.0])

    def test_hand_product(self):
        W1 = np.array([[1.0, 0.0], [0.0, 2.0]])
        W2 = np.array([[1.0], [1.0]])
        np.testing.assert_array_equal(neural_path_weights(linear_stack(W1, W2)), [1.0, 2.0])

    def test_linear_encoder_matches_jacobian(self):
        # for an all-linear pathway encoder, NPW is the Jacobian da/dx
        rng = RngStream(3)
        for _ in range(5):
            W1 = rng.normal(size=(4, 3))
            W2 = rng.normal(size=(3, 1))
            stack = linear_stack(W1, W2)
            npw = neural_path_weights(stack)
            x0 = rng.normal(size=4)

            def activity(v):
                h = v.reshape(1, -1) @ W1
                return float((h @ W2)[0, 0])

            jac = finite_diff_grad(activity, x0)
            assert max_rel_err(npw, jac) < 1e-6

    def test_anpw_absolute(self):
        np.testing.assert_array_equal(anpw([-0.5, 0.2]), [0.5, 0.2])
        np.testing.assert_array_equal(anpw([0.0, 0.0]), [0.0, 0.0])
        v = np.array([-1.0, 2.0])
        np.testing.assert_array_equal(anpw(anpw(v)), anpw(v))

    def test_sign_flip_invariance_of_ranking(self):
        # flipping one layer's sign together with the next layer's inputs
        # leaves the product unchanged
        rng = RngStream(5)
        W1 = rng.normal(size=(4, 3))
        W2 = rng.normal(size=(3, 1))
        ref = anpw(neural_path_weights(linear_stack(W1, W2)))
        flipped = anpw(neural_path_weights(linear_stack(-W1, -W2)))
        np.testing.assert_allclose(ref, flipped, rtol=1e-12)


class TestTopGenes:
    def test_ranked_by_magnitude_with_signed_report(self):
        stack = linear_stack(np.array([[0.62], [-0.9], [0.1]]))
        out = top_genes_by_anpw(stack, ["ST3GAL3", "FUT8", "B4GALT2"], k=2)
        assert out == [("FUT8", -0.9), ("ST3GAL3", 0.62)]

    def test_full_permutation(self):
        stack = linear_stack(np.array([[0.3], [-0.1]]))
        out = top_genes_by_anpw(stack, ["g1", "g2"], k=2)
        assert sorted(name for name, _ in out) == ["g1", "g2"]

    def test_ties_alphabetical(self):
        stack = linear_stack(np.array([[0.5], [-0.5]]))
        out = top_genes_by_anpw(stack, ["zeta", "alpha"], k=2)
        assert [name for name, _ in out] == ["alpha", "zeta"]

    def test_oversized_k_clamped_with_warning(self):
        stack = linear_stack(np.array([[1.0]]))
        with pytest.warns(UserWarning, match="clamped"):
            out = top_genes_by_anpw(stack, ["only"], k=10)
        assert len(out) == 1


class TestRankPathways:
    def test_label_aligned_column_ranks_first(self):
        rng = RngStream(2)
        labels = np.array(["x", "y"] * 20)
        onehot = (labels == "x").astype(float)
        a = np.column_stack([rng.normal(size=40), onehot, np.full(40, 2.0)])
        ranked = rank_pathways_by_mi(a, labels, ["noise", "aligned", "flat"])
        assert ranked[0][0] == "aligned"
        assert ranked[-1][0] == "flat"
        assert ranked[-1][1] == 0.0

    def test_k_clamped(self):
        a = np.zeros((4, 2))
        ranked = rank_pathways_by_mi(a, ["u", "v", "u", "v"], ["p0", "p1"], k=99)
        assert len(ranked) == 2


class TestHierarchicalCluster:
    def test_identical_rows_merge_first_at_zero(self):
        rows = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, -1.0]])
        tree = hierarchical_cluster(rows, metric="cosine")
        a, b, h, size = tree.merges[0]
        assert (a, b) == (0, 1) and h == pytest.approx(0.0) and size == 2

    def test_orthogonal_rows_distance_one(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        tree = hierarchical_cluster(rows, metric="cosine")
        assert tree.merges[0][2] == pytest.approx(1.0)

    def test_three_point_euclidean_merge_order(self):
        # points 0, 1, 5 on a line: (0,1) merge at 1, then {0,1}-2 at 4.5
        rows = np.array([[0.0], [1.0], [5.0]])
        tree = hierarchical_cluster(rows, metric="euclidean")
        assert tree.merges[0][:3] == (0, 1, pytest.approx(1.0))
        assert tree.merges[1][0] == 2
        assert tree.merges[1][2] == pytest.approx(4.5)
        assert tree.leaf_order == [2, 0, 1]

    def test_heights_nondecreasing(self):
        rows = RngStream(4).normal(size=(12, 5))
        tree = hierarchical_cluster(rows, metric="euclidean")
        heights = [m[2] for m in tree.merges]
        assert all(b >= a - 1e-12 for a, b in zip(heights, heights[1:]))

    def test_zero_row_cosine_error(self):
        with pytest.raises(DataError, match="row 1"):
            hierarchical_cluster(np.array([[1.0, 0.0], [0.0, 0.0]]), metric="cosine")


class TestPca2d:
    def test_collinear_second_component_zero(self):
        t = np.linspace(0, 1, 10).reshape(-1, 1)
        rows = t @ np.array([[1.0, 2.0, -1.0]])
        with pytest.warns(UserWarning):
            coords, fractions = pca_2d(rows)
        assert fractions[1] == pytest.approx(0.0)
        np.testing.assert_array_equal(coords[:, 1], np.zeros(10))

    def test_fractions_ordered_and_bounded(self):
        rows = RngStream(6).normal(size=(30, 6))
        _, fractions = pca_2d(rows)
        assert fractions[0] >= fractions[1] >= 0.0
        assert fractions.sum() <= 1.0 + 1e-12

    def test_full_rank_2d_preserves_distances(self):
        rows = RngStream(7).normal(size=(25, 2))
        coords, _ = pca_2d(rows)
        d_orig = np.linalg.norm(rows[:, None] - rows[None, :], axis=2)
        d_proj = np.linalg.norm(coords[:, None] - coords[None, :], axis=2)
        np.testing.assert_allclose(d_orig, d_proj, atol=1e-9)

    def test_deterministic_sign_convention(self):
        rows = RngStream(8).normal(size=(15, 4))
        c1, _ = pca_2d(rows)
        c2, _ = pca_2d(rows)
        np.testing.assert_array_equal(c1, c2)


class TestKaplanMeier:
    def test_two_deaths_no_censoring(self):
        curve = km_estimate([1.0, 2.0], [True, True])
        np.testing.assert_array_equal(curve.times, [0.0, 1.0, 2.0])
        np.testing.assert_allclose(curve.survival, [1.0, 0.5, 0.0])
        assert curve.at(1.5) == 0.5

    def test_all_censored_flat(self):
        curve = km_estimate([3.0, 8.0, 2.0], [False, False, False])
        np.testing.assert_array_equal(curve.survival, [1.0])
        assert curve.at(100.0) == 1.0

    def test_censoring_shrinks_risk_set(self):
        curve = km_estimate([1.0, 2.0], [False, True])
        assert curve.at(2.0) == 0.0

    def test_no_censoring_matches_empirical(self):
        rng = RngStream(9)
        times = np.round(rng.uniform(size=40) * 100)
        curve = km_estimate(times, np.ones(40, dtype=bool))
        for t in np.unique(times):
            assert curve.at(t) == pytest.approx(np.mean(times > t))


class TestLogrank:
    def test_identical_groups(self):
        t = [1.0, 2.0, 3.0]
        e = [True, True, False]
        stat, p = logrank_test(t, e, t, e)
        assert stat == 0.0 and p == 1.0

    def test_hand_computed_fixture(self):
        # alternating event times 1..6: O-E = 23/30, variance = 1091/900
        stat, p = logrank_test([1.0, 3.0, 5.0], [True] * 3, [2.0, 4.0, 6.0], [True] * 3)
        assert stat == pytest.approx(529.0 / 1091.0, rel=1e-12)
        assert p == pytest.approx(math.erfc(math.sqrt(529.0 / 1091.0 / 2.0)), rel=1e-12)

    def test_symmetric_under_swap(self):
        ta, ea = [1.0, 4.0, 6.0], [True, False, True]
        tb, eb = [2.0, 3.0, 9.0], [True, True, False]
        s1, p1 = logrank_test(ta, ea, tb, eb)
        s2, p2 = logrank_test(tb, eb, ta, ea)
        assert s1 == pytest.approx(s2) and p1 == pytest.approx(p2)

    def test_strong_separation_small_p(self):
        early = np.arange(1.0, 21.0)
        late = np.arange(100.0, 120.0)
        stat, p = logrank_test(early, [True] * 20, late, [True] * 20)
        assert p < 1e-6


def _reference_km(times, events):
    """The nested scan the risk-set routine replaced: walk the sorted times
    one tie run at a time, multiplying in each run's deaths."""
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    order = np.argsort(times, kind="stable")
    t_sorted, e_sorted = times[order], events[order]
    grid, surv, risk = [0.0], [1.0], [int(times.size)]
    s, i, n = 1.0, 0, times.size
    while i < n:
        t = t_sorted[i]
        j, deaths = i, 0
        while j < n and t_sorted[j] == t:
            deaths += int(e_sorted[j])
            j += 1
        if deaths > 0:
            s *= 1.0 - deaths / (n - i)
            grid.append(float(t))
            surv.append(s)
            risk.append(n - i)
        i = j
    return KMCurve(np.asarray(grid), np.asarray(surv), np.asarray(risk, dtype=int))


def _reference_logrank(ta, ea, tb, eb):
    """The per-event-time loop the risk-set routine replaced."""
    ta, tb = np.asarray(ta, dtype=np.float64), np.asarray(tb, dtype=np.float64)
    ea, eb = np.asarray(ea, dtype=bool), np.asarray(eb, dtype=bool)
    o_minus_e = var = 0.0
    for t in np.unique(np.concatenate([ta[ea], tb[eb]])):
        na, nb = int(np.sum(ta >= t)), int(np.sum(tb >= t))
        n = na + nb
        if n < 1 or na == 0 or nb == 0:
            continue
        da, db = int(np.sum(ea & (ta == t))), int(np.sum(eb & (tb == t)))
        d = da + db
        o_minus_e += da - d * na / n
        if n > 1:
            var += d * (na / n) * (nb / n) * (n - d) / (n - 1)
    if var <= 0:
        return 0.0, 1.0
    stat = o_minus_e**2 / var
    return float(stat), float(math.erfc(math.sqrt(stat / 2.0)))


# integer times, so most draws are tie-heavy; up to 21 distinct times, so
# a sum in another order than the loop's shows; a scale that makes the
# times non-integer
survival_groups = st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 20), min_size=n, max_size=n),
    st.lists(st.booleans(), min_size=n, max_size=n),
    st.sampled_from([1.0, 0.5, 7.25, 365.0]),
)).map(lambda g: (np.array(g[0]) * g[2], np.array(g[1])))


class TestRiskSet:
    """KM and logrank equal the loops they replaced, bit for bit."""

    @given(survival_groups)
    def test_km_equals_scan(self, group):
        times, events = group
        got, want = km_estimate(times, events), _reference_km(times, events)
        for field in ("times", "survival", "at_risk"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
            assert getattr(got, field).dtype == getattr(want, field).dtype

    @given(survival_groups, survival_groups)
    def test_logrank_equals_loop(self, group_a, group_b):
        assert logrank_test(*group_a, *group_b) == _reference_logrank(*group_a, *group_b)

    def test_nan_time_is_data_error(self):
        times, events = [1.0, math.nan, 3.0], [True, True, False]
        with pytest.raises(DataError, match="NaN"):
            km_estimate(times, events)
        with pytest.raises(DataError, match="NaN"):
            logrank_test(times, events, [2.0], [True])


class TestTercileSplit:
    def test_one_to_nine(self):
        values = np.arange(1.0, 10.0)
        low, high = tercile_split(values)
        np.testing.assert_array_equal(values[low], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(values[high], [7.0, 8.0, 9.0])

    def test_constant_degenerates_to_everything(self):
        low, high = tercile_split(np.full(6, 2.0))
        assert len(low) == len(high) == 6

    def test_sizes_near_third_and_disjoint(self):
        rng = RngStream(10)
        for _ in range(10):
            n = int(rng.integers(9, 60))
            values = rng.normal(size=n)
            low, high = tercile_split(values)
            assert abs(len(low) - n / 3) <= 1.5
            assert abs(len(high) - n / 3) <= 1.5
            assert not set(low.tolist()) & set(high.tolist())

    def test_too_few_samples(self):
        with pytest.raises(DataError):
            tercile_split([1.0, 2.0])


class TestSurvivalWindow:
    def test_truncates_and_censors(self):
        table = SurvivalTable({"a": (2000.0, True), "b": (100.0, True)})
        out = apply_survival_window(table, 1825.0)
        assert out.records["a"] == (1825.0, False)
        assert out.records["b"] == (100.0, True)

    def test_idempotent(self):
        table = SurvivalTable({"a": (2000.0, True), "b": (1825.0, False)})
        once = apply_survival_window(table)
        twice = apply_survival_window(once)
        assert once.records == twice.records


def _scalar_diverging_color(v: float, vmax: float) -> str:
    """The per-cell colour function the vectorized map replaced, kept as its
    reference."""
    if vmax <= 0:
        t = 0.0
    else:
        t = max(-1.0, min(1.0, v / vmax))
    if t >= 0:
        r, g, b = 255, round(255 * (1 - t) + 48 * t), round(255 * (1 - t) + 48 * t)
    else:
        t = -t
        r, g, b = round(255 * (1 - t) + 48 * t), round(255 * (1 - t) + 96 * t), 255
    return f"#{r:02x}{g:02x}{b:02x}"


class TestDivergingColors:
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=20),
           st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                     st.sampled_from([0.0, -0.0, 1.0])))
    def test_equals_scalar_reference(self, values, vmax):
        with np.errstate(all="ignore"):  # the callers pass numpy scalars
            got = _diverging_colors(values, vmax).tolist()
            want = [_scalar_diverging_color(np.float64(v), vmax) for v in values]
        assert got == want


class TestEmission:
    def test_clustermap_svg_and_csv(self, tmp_path):
        rng = RngStream(11)
        values = rng.normal(size=(3, 3))
        labels = ["a", "b", "a"]
        names = ["p0", "p1", "p2"]
        row_tree = hierarchical_cluster(values, metric="euclidean")
        col_tree = hierarchical_cluster(values.T, metric="euclidean")
        svg_path, csv_path = emit_clustermap(
            values, labels, names, tmp_path / "cm.svg", row_tree=row_tree, col_tree=col_tree
        )
        ET.parse(svg_path)  # valid XML
        rows = [line.split(",") for line in open(csv_path).read().strip().splitlines()]
        assert rows[0] == ["label"] + [names[j] for j in col_tree.leaf_order]
        reordered = values[np.ix_(row_tree.leaf_order, col_tree.leaf_order)]
        for i, r in enumerate(rows[1:]):
            assert r[0] == labels[row_tree.leaf_order[i]]
            np.testing.assert_array_equal([float(v) for v in r[1:]], reordered[i])

    def test_clustermap_csv_bytes(self, tmp_path):
        values = [[-0.0, 1e-300, 123456789012345.67], [1 / 3, -2.5e300, 7.0]]
        _, csv_path = emit_clustermap(values, ["a", "b"], ["p0", 'p,"q"', "p2"],
                                      tmp_path / "cm.svg")
        with open(csv_path, "rb") as fh:
            assert fh.read() == (
                b'label,p0,"p,""q""",p2\r\n'
                b"a,-0.0,1e-300,123456789012345.67\r\n"
                b"b,0.3333333333333333,-2.5e+300,7.0\r\n"
            )

    def test_clustermap_svg_bytes(self, tmp_path):
        # +-0.0 are white and +-1.0 sit at +-vmax; 0.5, 0.99758..., 0.97343...,
        # -0.99685... and -0.99057... each put a channel exactly on x.5 before
        # rounding, which goes to the even neighbour
        values = [[-0.0, 0.0, 1.0, -1.0],
                  [0.5, -0.5, 0.9975845410628019, -0.9968553459119497],
                  [0.9734299516908212, -0.9905660377358491, 0.25, -0.75]]
        svg, _ = emit_clustermap(values, ["b", "a", "b"], ["p0", "p1", "p2", "p3"],
                                 tmp_path / "cm.svg", title="t")
        with open(svg, "rb") as fh:
            assert fh.read() == (
                b'<?xml version="1.0" encoding="UTF-8"?>\n'
                b'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="96.0" '
                b'height="194.0" viewBox="0 0 96.0 194.0">\n'
                b'<rect x="0.00" y="0.00" width="96.00" height="194.00" fill="#ffffff"/>\n'
                b'<text x="18.00" y="12.00" font-size="10" font-family="sans-serif" fill="#000000" '
                b'text-anchor="start" >t</text>\n'
                b'<rect x="18.00" y="18.00" width="10.00" height="12.00" fill="#ff7f0e"/>\n'
                b'<rect x="30.00" y="18.00" width="12.00" height="12.00" fill="#ffffff"/>\n'
                b'<rect x="42.00" y="18.00" width="12.00" height="12.00" fill="#ffffff"/>\n'
                b'<rect x="54.00" y="18.00" width="12.00" height="12.00" fill="#ff3030"/>\n'
                b'<rect x="66.00" y="18.00" width="12.00" height="12.00" fill="#3060ff"/>\n'
                b'<rect x="18.00" y="30.00" width="10.00" height="12.00" fill="#1f77b4"/>\n'
                b'<rect x="30.00" y="30.00" width="12.00" height="12.00" fill="#ff9898"/>\n'
                b'<rect x="42.00" y="30.00" width="12.00" height="12.00" fill="#98b0ff"/>\n'
                b'<rect x="54.00" y="30.00" width="12.00" height="12.00" fill="#ff3030"/>\n'
                b'<rect x="66.00" y="30.00" width="12.00" height="12.00" fill="#3160ff"/>\n'
                b'<rect x="18.00" y="42.00" width="10.00" height="12.00" fill="#ff7f0e"/>\n'
                b'<rect x="30.00" y="42.00" width="12.00" height="12.00" fill="#ff3636"/>\n'
                b'<rect x="42.00" y="42.00" width="12.00" height="12.00" fill="#3262ff"/>\n'
                b'<rect x="54.00" y="42.00" width="12.00" height="12.00" fill="#ffcbcb"/>\n'
                b'<rect x="66.00" y="42.00" width="12.00" height="12.00" fill="#6488ff"/>\n'
                b'<text x="38.40" y="58.00" font-size="8" font-family="sans-serif" fill="#000000" '
                b'text-anchor="start" transform="rotate(90 38.4 58.0)" >p0</text>\n'
                b'<text x="50.40" y="58.00" font-size="8" font-family="sans-serif" fill="#000000" '
                b'text-anchor="start" transform="rotate(90 50.4 58.0)" >p1</text>\n'
                b'<text x="62.40" y="58.00" font-size="8" font-family="sans-serif" fill="#000000" '
                b'text-anchor="start" transform="rotate(90 62.400000000000006 58.0)" >p2</text>\n'
                b'<text x="74.40" y="58.00" font-size="8" font-family="sans-serif" fill="#000000" '
                b'text-anchor="start" transform="rotate(90 74.4 58.0)" >p3</text>\n'
                b'</svg>\n'
            )

    def test_all_zero_clustermap_bytes(self, tmp_path):
        svg, _ = emit_clustermap(np.zeros((2, 2)), ["x", "y"], ["q0", "q1"], tmp_path / "z.svg")
        with open(svg, "rb") as fh:
            assert fh.read() == (
                b'<?xml version="1.0" encoding="UTF-8"?>\n'
                b'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="72.0" '
                b'height="182.0" viewBox="0 0 72.0 182.0">\n'
                b'<rect x="0.00" y="0.00" width="72.00" height="182.00" fill="#ffffff"/>\n'
                b'<rect x="18.00" y="18.00" width="10.00" height="12.00" fill="#1f77b4"/>\n'
                b'<rect x="30.00" y="18.00" width="12.00" height="12.00" fill="#ffffff"/>\n'
                b'<rect x="42.00" y="18.00" width="12.00" height="12.00" fill="#ffffff"/>\n'
                b'<rect x="18.00" y="30.00" width="10.00" height="12.00" fill="#ff7f0e"/>\n'
                b'<rect x="30.00" y="30.00" width="12.00" height="12.00" fill="#ffffff"/>\n'
                b'<rect x="42.00" y="30.00" width="12.00" height="12.00" fill="#ffffff"/>\n'
                b'<text x="38.40" y="46.00" font-size="8" font-family="sans-serif" fill="#000000" '
                b'text-anchor="start" transform="rotate(90 38.4 46.0)" >q0</text>\n'
                b'<text x="50.40" y="46.00" font-size="8" font-family="sans-serif" fill="#000000" '
                b'text-anchor="start" transform="rotate(90 50.4 46.0)" >q1</text>\n'
                b'</svg>\n'
            )

    def test_featuremap_svg_bytes(self, tmp_path):
        coords = [[0.0, 1.0], [2.0, -1.0], [1.0 / 3, 0.5], [-1.5, 2.0 / 3]]
        a = np.array([[0.5, 1.5, 0.0], [-2.0, 1.5, 0.0],
                      [0.9734299516908212, 1.5, 0.0], [2.0, 1.5, 0.0]])
        files = emit_featuremap(coords, ["u", "v", "u", "w"], a, ["up", "flat", "zero"],
                                str(tmp_path), "fm")
        expected = [
            (
                b'<?xml version="1.0" encoding="UTF-8"?>\n'
                b'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="360.0" '
                b'height="360.0" viewBox="0 0 360.0 360.0">\n'
                b'<rect x="0.00" y="0.00" width="360.00" height="360.00" fill="#ffffff"/>\n'
                b'<text x="30.00" y="14.00" font-size="10" font-family="sans-serif" fill="#000000" '
                b'text-anchor="start" >classes</text>\n'
                b'<text x="30.00" y="25.00" font-size="8" font-family="sans-serif" fill="#555555" '
                b'text-anchor="start" >PCA 2-D map (PCA substitutes for UMAP)</text>\n'
                b'<circle cx="158.57" cy="30.00" r="3" fill="#1f77b4" fill-opacity="0.8"/>\n'
                b'<circle cx="330.00" cy="330.00" r="3" fill="#ff7f0e" fill-opacity="0.8"/>\n'
                b'<circle cx="187.14" cy="105.00" r="3" fill="#1f77b4" fill-opacity="0.8"/>\n'
                b'<circle cx="30.00" cy="80.00" r="3" fill="#2ca02c" fill-opacity="0.8"/>\n'
                b'</svg>\n'
            ),
            (
                b'<?xml version="1.0" encoding="UTF-8"?>\n'
                b'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="360.0" '
                b'height="360.0" viewBox="0 0 360.0 360.0">\n'
                b'<rect x="0.00" y="0.00" width="360.00" height="360.00" fill="#ffffff"/>\n'
                b'<text x="30.00" y="14.00" font-size="10" font-family="sans-serif" fill="#000000" '
                b'text-anchor="start" >up</text>\n'
                b'<text x="30.00" y="25.00" font-size="8" font-family="sans-serif" fill="#555555" '
                b'text-anchor="start" >activity intensity (symmetric about 0)</text>\n'
                b'<circle cx="158.57" cy="30.00" r="3" fill="#ffcbcb" fill-opacity="0.8"/>\n'
                b'<circle cx="330.00" cy="330.00" r="3" fill="#3060ff" fill-opacity="0.8"/>\n'
                b'<circle cx="187.14" cy="105.00" r="3" fill="#ff9a9a" fill-opacity="0.8"/>\n'
                b'<circle cx="30.00" cy="80.00" r="3" fill="#ff3030" fill-opacity="0.8"/>\n'
                b'</svg>\n'
            ),
            (  # a constant column: every point at +vmax
                b'<?xml version="1.0" encoding="UTF-8"?>\n'
                b'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="360.0" '
                b'height="360.0" viewBox="0 0 360.0 360.0">\n'
                b'<rect x="0.00" y="0.00" width="360.00" height="360.00" fill="#ffffff"/>\n'
                b'<text x="30.00" y="14.00" font-size="10" font-family="sans-serif" fill="#000000" '
                b'text-anchor="start" >flat</text>\n'
                b'<text x="30.00" y="25.00" font-size="8" font-family="sans-serif" fill="#555555" '
                b'text-anchor="start" >activity intensity (symmetric about 0)</text>\n'
                b'<circle cx="158.57" cy="30.00" r="3" fill="#ff3030" fill-opacity="0.8"/>\n'
                b'<circle cx="330.00" cy="330.00" r="3" fill="#ff3030" fill-opacity="0.8"/>\n'
                b'<circle cx="187.14" cy="105.00" r="3" fill="#ff3030" fill-opacity="0.8"/>\n'
                b'<circle cx="30.00" cy="80.00" r="3" fill="#ff3030" fill-opacity="0.8"/>\n'
                b'</svg>\n'
            ),
            (  # an all-zero column: vmax falls back to 1, every point white
                b'<?xml version="1.0" encoding="UTF-8"?>\n'
                b'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="360.0" '
                b'height="360.0" viewBox="0 0 360.0 360.0">\n'
                b'<rect x="0.00" y="0.00" width="360.00" height="360.00" fill="#ffffff"/>\n'
                b'<text x="30.00" y="14.00" font-size="10" font-family="sans-serif" fill="#000000" '
                b'text-anchor="start" >zero</text>\n'
                b'<text x="30.00" y="25.00" font-size="8" font-family="sans-serif" fill="#555555" '
                b'text-anchor="start" >activity intensity (symmetric about 0)</text>\n'
                b'<circle cx="158.57" cy="30.00" r="3" fill="#ffffff" fill-opacity="0.8"/>\n'
                b'<circle cx="330.00" cy="330.00" r="3" fill="#ffffff" fill-opacity="0.8"/>\n'
                b'<circle cx="187.14" cy="105.00" r="3" fill="#ffffff" fill-opacity="0.8"/>\n'
                b'<circle cx="30.00" cy="80.00" r="3" fill="#ffffff" fill-opacity="0.8"/>\n'
                b'</svg>\n'
            ),
        ]
        assert [f.rsplit("/", 1)[1] for f in files] == [
            "fm-class.svg", "fm-up.svg", "fm-flat.svg", "fm-zero.svg"]
        for f, want in zip(files, expected):
            with open(f, "rb") as fh:
                assert fh.read() == want, f

    def test_km_plot_svg_bytes(self, tmp_path):
        low = km_estimate([1.0, 2.0, 2.0, 5.0], [True, True, False, True])
        high = km_estimate([0.5, 3.0, 4.0], [True, False, True])
        path = emit_km_plot([("low", low, "#2166ac"), ("high", high, "#b2182c")],
                            "G1 (P<1>)", tmp_path / "km.svg", subtitle="logrank p = 0.5")
        with open(path, "rb") as fh:
            assert fh.read() == (
                b'<?xml version="1.0" encoding="UTF-8"?>\n'
                b'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="420.0" '
                b'height="300.0" viewBox="0 0 420.0 300.0">\n'
                b'<rect x="0.00" y="0.00" width="420.00" height="300.00" fill="#ffffff"/>\n'
                b'<text x="40.00" y="16.00" font-size="11" font-family="sans-serif" fill="#000000" '
                b'text-anchor="start" >G1 (P&lt;1&gt;)</text>\n'
                b'<text x="40.00" y="28.00" font-size="9" font-family="sans-serif" fill="#555555" '
                b'text-anchor="start" >logrank p = 0.5</text>\n'
                b'<line x1="40.0" y1="260.0" x2="380.0" y2="260.0" stroke="#000000" '
                b'stroke-width="1"/>\n'
                b'<line x1="40.0" y1="260.0" x2="40.0" y2="40.0" stroke="#000000" '
                b'stroke-width="1"/>\n'
                b'<polyline points="40.00,40.00 108.00,40.00 108.00,95.00 176.00,95.00 '
                b'176.00,150.00 380.00,150.00 380.00,260.00 380.00,260.00" fill="none" '
                b'stroke="#2166ac" stroke-width="1.5"/>\n'
                b'<text x="280.00" y="40.00" font-size="9" font-family="sans-serif" fill="#2166ac" '
                b'text-anchor="start" >low</text>\n'
                b'<polyline points="40.00,40.00 74.00,40.00 74.00,113.33 312.00,113.33 '
                b'312.00,260.00 380.00,260.00" fill="none" stroke="#b2182c" stroke-width="1.5"/>\n'
                b'<text x="280.00" y="52.00" font-size="9" font-family="sans-serif" fill="#b2182c" '
                b'text-anchor="start" >high</text>\n'
                b'</svg>\n'
            )

    def test_clustermap_colors_stable(self, tmp_path):
        values = np.eye(3)
        svg1, _ = emit_clustermap(values, ["x", "y", "z"], ["a", "b", "c"], tmp_path / "1.svg",
                                  vocabulary=["x", "y", "z"])
        svg2, _ = emit_clustermap(values, ["x", "y", "z"], ["a", "b", "c"], tmp_path / "2.svg",
                                  vocabulary=["x", "y", "z"])
        assert open(svg1).read() == open(svg2).read()

    def test_featuremap_files_and_shared_viewbox(self, tmp_path):
        rng = RngStream(12)
        coords = rng.normal(size=(20, 2))
        a = rng.normal(size=(20, 6))
        a[:, 2] = 1.5  # constant activity column
        names = [f"p{j}" for j in range(5)]
        files = emit_featuremap(coords, ["u", "v"] * 10, a[:, :5], names, str(tmp_path), "fm")
        assert len(files) == 1 + 5
        viewboxes = set()
        for f in files:
            root = ET.parse(f).getroot()
            viewboxes.add(root.get("viewBox"))
        assert len(viewboxes) == 1
        # constant column renders a single fill color across all points
        constant_panel = [f for f in files if f.endswith("p2.svg")][0]
        root = ET.parse(constant_panel).getroot()
        fills = {c.get("fill") for c in root.iter() if c.tag.endswith("circle")}
        assert len(fills) == 1

    def test_km_plot_valid_xml(self, tmp_path):
        low = km_estimate([1.0, 2.0, 5.0], [True, True, False])
        high = km_estimate([4.0, 6.0, 9.0], [True, False, False])
        path = emit_km_plot(
            [("low", low, "#2166ac"), ("high", high, "#b2182c")],
            "GENE1", tmp_path / "km.svg", subtitle="logrank p = 0.04",
        )
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")


class TestNpwOnRealModel:
    def test_model_pathway_encoder_jacobian(self):
        # all-linear pathway encoders (no hidden layers): NPW == da/dx
        masks = [PathwayMask("P0", np.array([0, 2, 3])), PathwayMask("P1", np.array([1, 4]))]
        arch = ArchitectureConfig(kind="paae", encoder_layer_sizes=[2], dropout_rate=0.0)
        model = build_model(arch, 5, masks, RngStream(13))
        x0 = RngStream(14).normal(size=(1, 5))
        for j, mask in enumerate(masks):
            npw = neural_path_weights(model.params.pathway_encoders[j])

            def activity(v):
                x = x0.copy()
                x[0, mask.indices] = v
                return float(forward(model, x).a[0, j])

            jac = finite_diff_grad(activity, x0[0, mask.indices].copy())
            assert max_rel_err(npw, jac) < 1e-6
