import csv
import math

import numpy as np
import pytest

from seqpred import numerics
from seqpred.numerics import kl_bernoulli
from seqpred.inequality_lab import (
    _BLOCK_ROWS,
    AdmissibilityError,
    GridError,
    GridSpec,
    MarginReport,
    ScanRow,
    _merge_minima,
    admissible_distance,
    admissible_lower,
    admissible_threshold,
    check_distance_bound,
    check_kl_quadratic_bound,
    check_lower_bound,
    check_threshold_bound,
    distance_margin,
    kl_mesh,
    kl_quadratic_margin,
    lower_bound_edge_quadratic,
    lower_margin,
    required_b_distance,
    required_b_threshold,
    run_all_scans,
    sample_distance_params,
    sample_lower_params,
    sample_threshold_params,
    threshold_margin,
)

SMALL = GridSpec(y_count=400, z_count=400, refine_per_side=16, param_samples=12)


class TestGridSpec:
    def test_defaults(self):
        spec = GridSpec()
        assert spec.y_count == 2000
        assert spec.z_count == 2000
        assert spec.epsilon == 1e-6

    def test_epsilon_floor(self):
        with pytest.raises(GridError, match="boundary offset"):
            GridSpec(epsilon=1e-7)
        with pytest.raises(GridError):
            GridSpec(epsilon=0.5)

    def test_axis_minimums(self):
        with pytest.raises(GridError):
            GridSpec(y_count=1)

    def test_grids_stay_inside_open_square(self):
        spec = GridSpec(y_count=50, z_count=50, refine_per_side=8)
        y = spec.y_values()
        z = spec.z_values()
        assert y.min() == spec.epsilon and y.max() == 1 - spec.epsilon
        assert z.min() == spec.epsilon and z.max() == 1 - spec.epsilon
        assert len(z) > 50  # refinement adds points near the edges

    def test_refinement_points_shared_across_densities(self):
        # Doubling the base density must not move the near-edge points,
        # otherwise corner margins would wobble between resolutions.
        lo = GridSpec(y_count=100, z_count=100, refine_per_side=8)
        hi = GridSpec(y_count=200, z_count=200, refine_per_side=8)
        lo_edge = [v for v in lo.z_values() if v < 1e-3]
        hi_edge = [v for v in hi.z_values() if v < 1e-3]
        assert set(np.round(lo_edge, 12)) <= set(np.round(hi_edge, 12))


class TestPointMargins:
    def test_distance_margin_on_diagonal(self):
        # With y = z the KL and |y - z| terms vanish.
        for y in (0.1, 0.3, 0.5, 0.9):
            assert distance_margin(y, y, 1.0, 1.5) == pytest.approx(
                2 * y * (1 - y), rel=1e-12
            )

    def test_lower_margin_center_value(self):
        assert lower_margin(0.5, 0.5, 0.5, 2.0) == pytest.approx(0.25)

    def test_threshold_margin_diagonal(self):
        # Below 1/2 the step call is 0 and the margin collapses to A y.
        for y in (0.05, 0.2, 0.45):
            assert threshold_margin(y, y, 2.0, 1.0) == pytest.approx(2 * y)
        for y in (0.55, 0.8):
            assert threshold_margin(y, y, 2.0, 1.0) == pytest.approx(2 * (1 - y))

    def test_kl_quadratic_margin_example(self):
        assert kl_bernoulli(0.9, 0.1) == pytest.approx(1.7578, abs=1e-4)
        assert kl_quadratic_margin(0.9, 0.1) == pytest.approx(
            kl_bernoulli(0.9, 0.1) - 1.28, rel=1e-12
        )


class TestAdmissibility:
    def test_required_constants(self):
        assert required_b_distance(1.0) == pytest.approx(1.5)
        assert required_b_threshold(2.0) == pytest.approx(1.0)
        assert admissible_distance(1.0, 1.5)
        assert not admissible_distance(1.0, 1.2)
        assert admissible_lower(0.5, 1.01)
        assert not admissible_lower(0.5, 0.99)
        assert not admissible_lower(2.0, 0.9)
        assert admissible_threshold(2.0, 1.0)
        assert not admissible_threshold(2.0, 0.5)

    def test_samplers_respect_their_regions(self):
        for sampler, admissible in (
            (sample_distance_params, admissible_distance),
            (sample_lower_params, admissible_lower),
            (sample_threshold_params, admissible_threshold),
        ):
            pairs = sampler(40, seed=123)
            assert len(pairs) == 40
            assert all(admissible(a, b) for a, b in pairs)

    def test_samplers_include_boundary(self):
        pairs = sample_distance_params(10, seed=5)
        on_boundary = [
            (a, b) for a, b in pairs if abs(b - required_b_distance(a)) < 1e-12
        ]
        assert on_boundary

    def test_strict_mode_rejects_inadmissible(self):
        with pytest.raises(AdmissibilityError, match="explore"):
            check_distance_bound(SMALL, pairs=[(1.0, 0.5)])


class TestScans:
    def test_admissible_scans_pass(self):
        for check in (check_distance_bound, check_lower_bound,
                      check_threshold_bound):
            report = check(SMALL)
            assert report.passed
            assert report.min_margin > 0.0
            for row in report.rows:
                assert row.violations == 0

    def test_explore_reports_genuine_violations(self):
        cases = [
            (check_distance_bound, (1.0, 0.5)),
            (check_lower_bound, (0.1, 1.05)),
            (check_threshold_bound, (2.0, 0.0)),
        ]
        for check, pair in cases:
            report = check(SMALL, pairs=[pair], mode="explore")
            row = report.rows[0]
            assert not row.admissible
            assert row.min_margin < 0.0
            assert row.violations > 0
            # explore never gates: the report still renders and the
            # admissible-row pass property is vacuously true
            assert report.passed

    def test_explore_near_boundary_pair_holds_anyway(self):
        # (A, B) = (1, 1.2) sits outside the proven region yet the
        # inequality itself never fails there; the scan must report
        # zero violating cells rather than inventing any.
        report = check_distance_bound(SMALL, pairs=[(1.0, 1.2)], mode="explore")
        row = report.rows[0]
        assert not row.admissible
        assert row.violations == 0
        assert row.min_margin > 0.0

    def test_doubling_density_is_stable(self):
        # Regression property: a finer mesh may move the minimum a
        # little but must not flip a pass, and the margins of the
        # parameterized scans agree within 10%.
        coarse = GridSpec(y_count=350, z_count=350, param_samples=8)
        fine = GridSpec(y_count=700, z_count=700, param_samples=8)
        for check in (check_distance_bound, check_lower_bound,
                      check_threshold_bound):
            a = check(coarse)
            b = check(fine)
            assert a.passed and b.passed
            for row_a, row_b in zip(a.rows, b.rows):
                assert row_b.min_margin <= row_a.min_margin * 1.1
                assert row_b.min_margin >= row_a.min_margin * 0.9

    def test_margins_shrink_toward_admissibility_boundary(self):
        inside = check_distance_bound(SMALL, pairs=[(1.0, 3.0)]).rows[0]
        boundary = check_distance_bound(SMALL, pairs=[(1.0, 1.5)]).rows[0]
        assert boundary.min_margin < inside.min_margin

    def test_threads_do_not_change_results(self):
        spec = GridSpec(y_count=200, z_count=200, param_samples=6)
        for check in (check_distance_bound, check_lower_bound,
                      check_threshold_bound, check_kl_quadratic_bound):
            serial = check(spec, threads=1)
            parallel = check(spec, threads=4)
            assert serial.to_dict() == parallel.to_dict()


def _full_mesh_row(y, z, a, b, admissible, margins):
    flat = int(np.argmin(margins))
    row_i, col_i = divmod(flat, margins.shape[1])
    return ScanRow(
        a=a, b=b, admissible=admissible,
        min_margin=float(margins[row_i, col_i]),
        argmin_y=float(y[row_i]), argmin_z=float(z[col_i]),
        violations=int(np.count_nonzero(margins <= 0.0)),
    )


def full_mesh_report(spec, inequality, pairs=None, mode="strict"):
    """One scan as a full-mesh expression per (A, B) pair.

    The plain formulas the blocked kernel must reproduce bit for bit:
    every margin mesh is materialized, then np.argmin and a count of
    cells <= 0 run over it.
    """
    y = spec.y_values()
    z = spec.z_values()
    yc = y[:, None]
    zr = z[None, :]
    kl = kl_mesh(y, z)
    diagonal_max = None
    if inequality == "kl_quadratic":
        margins = kl - 2.0 * (yc - zr) ** 2
        on_diagonal = yc == zr
        if np.any(on_diagonal):
            diagonal_max = float(np.max(np.abs(margins[on_diagonal])))
        off = np.where(on_diagonal, np.inf, margins)
        rows = (_full_mesh_row(y, z, None, None, True, off),)
    else:
        informed = 2.0 * yc * (1.0 - yc)
        abs_diff = np.abs(yc - zr)
        mixture_err = yc * (1.0 - zr) + zr * (1.0 - yc)
        half = np.minimum(y, 1.0 - y)[:, None]
        if numerics.TIE_PREDICTION == 0:
            predicted = (z > 0.5).astype(float)[None, :]
        else:
            predicted = (z >= 0.5).astype(float)[None, :]
        theta_err = np.abs(yc - predicted)
        sampler, admissible, evaluate = {
            "distance": (
                sample_distance_params, admissible_distance,
                lambda a, b: a * informed + b * kl - abs_diff,
            ),
            "lower": (
                sample_lower_params, admissible_lower,
                lambda a, b: (a - 1.0) * informed + (b - 1.0) * kl + mixture_err,
            ),
            "threshold": (
                sample_threshold_params, admissible_threshold,
                lambda a, b: (a + 1.0) * half + (b + 1.0) * kl - theta_err,
            ),
        }[inequality]
        if pairs is None:
            pairs = sampler(spec.param_samples, spec.param_seed)
        rows = tuple(
            _full_mesh_row(y, z, a, b, admissible(a, b), evaluate(a, b))
            for a, b in pairs
        )
    return MarginReport(
        inequality=inequality, mode=mode, y_count=len(y), z_count=len(z),
        epsilon=spec.epsilon, rows=rows, diagonal_max_abs=diagonal_max,
    )


CHECKS = {
    "distance": check_distance_bound,
    "lower": check_lower_bound,
    "threshold": check_threshold_bound,
    "kl_quadratic": check_kl_quadratic_bound,
}

# Explore pairs with violations, and with NaN cells: B = inf times the
# zero KL on the diagonal.
EXPLORE = {
    "distance": [(1.0, 0.5), (0.0, math.inf), (1.0, 1.2)],
    "lower": [(0.1, 1.05), (1.0, math.inf)],
    "threshold": [(2.0, 0.0), (-1.0, math.inf)],
}


def assert_same_report(blocked, reference):
    # repr is stricter than ==: it tells -0.0 from 0.0 and spells NaN,
    # which never compares equal to itself.
    assert repr(blocked.to_dict()) == repr(reference.to_dict())


class TestBlockedScanMatchesFullMesh:
    """The blocked kernel gives the full-mesh reports exactly.

    Row counts sit around the block size: one partial block, one short
    of a block, exactly one, one more (a trailing one-row block) and a
    few blocks with a ragged end.
    """

    ROW_COUNTS = (
        2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 5,
    )

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("y_count", ROW_COUNTS)
    @pytest.mark.parametrize("inequality", sorted(CHECKS))
    def test_strict_scans(self, inequality, y_count, threads):
        spec = GridSpec(
            y_count=y_count, z_count=29, refine_per_side=4, param_samples=5,
        )
        blocked = CHECKS[inequality](spec, threads=threads)
        assert_same_report(blocked, full_mesh_report(spec, inequality))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("inequality", sorted(EXPLORE))
    def test_explore_scans_with_violations_and_nan(self, inequality, threads):
        spec = GridSpec(y_count=2 * _BLOCK_ROWS + 5, z_count=29,
                        refine_per_side=4)
        pairs = EXPLORE[inequality]
        blocked = CHECKS[inequality](
            spec, pairs=pairs, mode="explore", threads=threads,
        )
        reference = full_mesh_report(spec, inequality, pairs, "explore")
        assert_same_report(blocked, reference)
        assert any(row.violations > 0 for row in blocked.rows)
        assert any(math.isnan(row.min_margin) for row in blocked.rows)

    @pytest.mark.parametrize("tie", [0, 1])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_threshold_tie_prediction(self, monkeypatch, tie, threads):
        monkeypatch.setattr(numerics, "TIE_PREDICTION", tie)
        spec = GridSpec(y_count=_BLOCK_ROWS + 1, z_count=29, refine_per_side=4,
                        param_samples=5)
        assert 0.5 in spec.z_values()
        pairs = [(2.0, 0.0), (0.5, 1.0)]
        blocked = check_threshold_bound(
            spec, pairs=pairs, mode="explore", threads=threads,
        )
        assert_same_report(
            blocked, full_mesh_report(spec, "threshold", pairs, "explore"),
        )

    @pytest.mark.parametrize("threads", [1, 2])
    def test_run_all_scans_shares_one_mesh(self, threads):
        spec = GridSpec(y_count=_BLOCK_ROWS + 1, z_count=29, refine_per_side=4,
                        param_samples=3)
        explore = {name: pairs[:1] for name, pairs in EXPLORE.items()}
        strict, explored = run_all_scans(spec, explore, threads=threads)
        for report in strict:
            assert_same_report(
                report, full_mesh_report(spec, report.inequality),
            )
        for report in explored:
            assert_same_report(report, full_mesh_report(
                spec, report.inequality, explore[report.inequality],
                "explore",
            ))


class TestArgminMerge:
    def test_merge_matches_argmin_on_the_concatenation(self):
        # An exact tie (1.0) across the first block boundary, -0.0 tying
        # 0.0 later, then a NaN and a smaller value after it.
        blocks = [
            np.array([3.0, 1.0, 2.0]),
            np.array([1.0, 5.0]),
            np.array([0.0, 4.0]),
            np.array([-0.0, 7.0]),
            np.array([4.0, np.nan, 0.5]),
            np.array([np.nan, -1.0]),
        ]
        starts = np.cumsum([0] + [len(block) for block in blocks])
        partials = [
            (float(block[np.argmin(block)]), int(start + np.argmin(block)))
            for block, start in zip(blocks, starts)
        ]
        for end in range(1, len(blocks) + 1):
            whole = np.concatenate(blocks[:end])
            value, flat = _merge_minima(partials[:end])
            assert flat == int(np.argmin(whole))
            assert repr(value) == repr(float(whole[flat]))
        assert _merge_minima(partials[:2]) == (1.0, 1)
        assert repr(_merge_minima(partials[:4])) == repr((0.0, 5))
        value, flat = _merge_minima(partials)
        assert math.isnan(value) and flat == 10


class TestKlMesh:
    @pytest.mark.parametrize("rows", [1, 3, 16])
    def test_row_blocks_are_bitwise_equal(self, rows):
        spec = GridSpec()
        y = spec.y_values()
        z = spec.z_values()
        stacked = np.concatenate([
            kl_mesh(y[start:start + rows], z)
            for start in range(0, len(y), rows)
        ])
        whole = kl_mesh(y, z)
        assert np.array_equal(stacked.view(np.int64), whole.view(np.int64))


class TestKlQuadratic:
    def test_diagonal_is_exactly_zero(self):
        report = check_kl_quadratic_bound(SMALL)
        assert report.diagonal_max_abs == 0.0

    def test_off_diagonal_minimum_positive(self):
        report = check_kl_quadratic_bound(SMALL)
        row = report.rows[0]
        assert row.min_margin > 0.0
        assert row.violations == 0

    def test_minimum_sits_next_to_the_diagonal(self):
        spec = GridSpec(y_count=500, z_count=500, refine_per_side=0)
        row = check_kl_quadratic_bound(spec).rows[0]
        grid_step = (1 - 2 * spec.epsilon) / (spec.y_count - 1)
        assert abs(row.argmin_y - row.argmin_z) <= 2 * grid_step + 1e-12


class TestEdgeQuadratic:
    def test_edge_values_are_the_admissibility_product(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            b = float(rng.uniform(1.01, 4.0))
            a = float(rng.uniform(1.0, 8.0)) / (2 * b)
            expected = (2 * a * b - 1) * (b - 1)
            assert lower_bound_edge_quadratic(0.0, a, b) == pytest.approx(
                expected, abs=1e-12
            )
            assert lower_bound_edge_quadratic(1.0, a, b) == pytest.approx(
                expected, abs=1e-12
            )

    def test_center_value(self):
        for a, b in [(0.4, 1.3), (2.0, 1.1)]:
            assert lower_bound_edge_quadratic(0.5, a, b) == pytest.approx(
                2 * a * (b - 0.5) ** 2, rel=1e-12
            )

    def test_nonnegative_on_admissible_samples(self):
        for a, b in sample_lower_params(30, seed=3):
            zs = np.linspace(0, 1, 101)
            values = [lower_bound_edge_quadratic(z, a, b) for z in zs]
            assert min(values) >= -1e-12


class TestThresholdMinimizerShape:
    def test_lower_half_argmin_hugs_one_half_for_confident_y(self):
        # For y >= 1/2 the margin decreases in z all the way up to the
        # half line, so on the lower half grid the minimizing z is the
        # last point below 1/2.
        spec = GridSpec(y_count=101, z_count=400, refine_per_side=0)
        z = spec.z_values()
        lower_half = z[z < 0.5]
        a, b = 2.0, 1.0
        for y in (0.5, 0.7, 0.95):
            margins = [threshold_margin(y, zi, a, b) for zi in lower_half]
            argmin = lower_half[int(np.argmin(margins))]
            assert argmin == lower_half[-1]
            assert 0.5 - argmin <= (z[1] - z[0]) + 1e-12


class TestReports:
    def test_csv_layout(self, tmp_path):
        report = check_distance_bound(SMALL)
        path = tmp_path / "margins.csv"
        report.write_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "a", "b", "admissible", "min_margin", "argmin_y", "argmin_z",
            "violations", "y_count", "z_count", "epsilon",
        ]
        assert len(rows) == 1 + len(report.rows)
        assert float(rows[1][3]) == report.rows[0].min_margin

    def test_run_all_scans_shapes(self):
        strict, explored = run_all_scans(
            SMALL, explore_pairs={"distance": [(1.0, 0.5)]},
        )
        assert [r.inequality for r in strict] == [
            "distance", "lower", "threshold", "kl_quadratic",
        ]
        assert all(r.passed for r in strict)
        assert len(explored) == 1 and explored[0].mode == "explore"

    def test_run_all_scans_rejects_unknown_name(self):
        with pytest.raises(GridError, match="unknown inequality"):
            run_all_scans(SMALL, explore_pairs={"pinsker": [(1.0, 1.0)]})
