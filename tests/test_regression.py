import numpy as np
import pytest

from dpsea.regression import (
    ModelKind,
    RegressionModel,
    fit,
    loo_rank_correlation,
    minimize,
    predict,
    predict_many,
    select_kind,
)


def oracle_fit(xs, ys, kind, lam):
    """Brute-force normal-equations solve in standardized space, expanded
    back to original coordinates by hand. Independent of the library path,
    which uses an augmented lstsq."""
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    d = xs.shape[1]
    c = xs.mean(axis=0)
    s = xs.std(axis=0)
    s = np.where(s == 0.0, 1.0, s)
    z = (xs - c) / s
    cols = [np.ones(len(ys))]
    if kind in (ModelKind.LINEAR, ModelKind.DIAG_QUADRATIC):
        cols.extend(z[:, j] for j in range(d))
    if kind is ModelKind.DIAG_QUADRATIC:
        cols.extend(z[:, j] ** 2 for j in range(d))
    a = np.column_stack(cols)
    p = a.shape[1]
    pen = lam * np.eye(p)
    pen[0, 0] = 0.0
    beta = np.linalg.solve(a.T @ a + pen, a.T @ ys)

    # expand p(z) with z_j = (x_j - c_j) / s_j into original coordinates
    if kind is ModelKind.CONSTANT:
        return beta
    b0 = beta[0]
    bl = beta[1 : d + 1]
    if kind is ModelKind.LINEAR:
        lin = bl / s
        return np.concatenate([[b0 - lin @ c], lin])
    bq = beta[d + 1 :]
    quad = bq / s**2
    lin = bl / s - 2 * quad * c
    const = b0 - (bl / s) @ c + quad @ (c * c)
    return np.concatenate([[const], lin, quad])


class TestSelectKind:
    def test_thresholds(self):
        d = 5
        assert select_kind(2 * d + 2, d, 1.0) is ModelKind.DIAG_QUADRATIC
        assert select_kind(2 * d + 1, d, 1.0) is ModelKind.LINEAR
        assert select_kind(d + 2, d, 1.0) is ModelKind.LINEAR
        assert select_kind(d + 1, d, 1.0) is ModelKind.CONSTANT
        assert select_kind(1, d, 1.0) is ModelKind.CONSTANT

    def test_factor_raises_quadratic_bar(self):
        d = 5
        assert select_kind(2 * d + 2, d, 1.5) is ModelKind.LINEAR
        assert select_kind(18, d, 1.5) is ModelKind.DIAG_QUADRATIC

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            select_kind(0, 3, 1.0)


class TestExactRecovery:
    def test_noiseless_quadratic_1d(self):
        # y = 3 + 2x + 5x^2 recovered exactly with lam = 0
        xs = np.linspace(-2, 2, 9)[:, None]
        ys = 3.0 + 2.0 * xs[:, 0] + 5.0 * xs[:, 0] ** 2
        model = fit(xs, ys, ModelKind.DIAG_QUADRATIC, lam=0.0)
        assert np.allclose(model.coefficients, [3.0, 2.0, 5.0], atol=1e-8)

    def test_noiseless_quadratic_3d(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(-5, 5, (40, 3))
        coef = np.array([1.5, -2.0, 0.5, 3.0, 0.25, -1.0, 2.0])
        ys = coef[0] + xs @ coef[1:4] + (xs * xs) @ coef[4:]
        model = fit(xs, ys, ModelKind.DIAG_QUADRATIC, lam=0.0)
        assert np.allclose(model.coefficients, coef, atol=1e-7)

    def test_noiseless_linear(self):
        rng = np.random.default_rng(1)
        xs = rng.uniform(-1, 1, (20, 4))
        ys = 2.0 + xs @ np.array([1.0, -1.0, 0.5, 3.0])
        model = fit(xs, ys, ModelKind.LINEAR, lam=0.0)
        assert np.allclose(model.coefficients, [2.0, 1.0, -1.0, 0.5, 3.0], atol=1e-8)

    def test_constant_is_sample_mean(self):
        xs = np.arange(6, dtype=float)[:, None]
        ys = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        model = fit(xs, ys, ModelKind.CONSTANT, lam=0.0)
        assert model.coefficients[0] == pytest.approx(3.5)


class TestOracleEquivalence:
    def test_100_random_instances(self):
        rng = np.random.default_rng(2024)
        kinds = [ModelKind.CONSTANT, ModelKind.LINEAR, ModelKind.DIAG_QUADRATIC]
        for trial in range(100):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(2 * d + 3, 60))
            lam = float(rng.choice([0.0, 1e-8, 1e-6, 1e-3]))
            kind = kinds[trial % 3]
            xs = rng.uniform(-3, 3, (n, d))
            ys = rng.normal(0, 2, n) + xs @ rng.uniform(-1, 1, d)
            got = fit(xs, ys, kind, lam).coefficients
            want = oracle_fit(xs, ys, kind, lam)
            scale = np.maximum(np.abs(want), 1.0)
            assert np.all(np.abs(got - want) / scale < 1e-8), (trial, kind, lam)

    def test_predictions_match_oracle(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-2, 2, (30, 2))
        ys = rng.normal(size=30)
        model = fit(xs, ys, ModelKind.DIAG_QUADRATIC, lam=1e-6)
        want = oracle_fit(xs, ys, ModelKind.DIAG_QUADRATIC, 1e-6)
        pts = rng.uniform(-2, 2, (10, 2))
        got = predict_many(model, pts)
        ref = want[0] + pts @ want[1:3] + (pts * pts) @ want[3:]
        assert np.allclose(got, ref, atol=1e-8)


class TestDegenerateSamples:
    def test_duplicate_points_stay_finite(self):
        xs = np.tile(np.array([[1.0, 2.0]]), (10, 1))
        ys = np.full(10, 7.0)
        for kind in ModelKind:
            model = fit(xs, ys, kind, lam=1e-8)
            assert np.all(np.isfinite(model.coefficients))
            assert predict(model, np.array([1.0, 2.0])) == pytest.approx(7.0, abs=1e-6)

    def test_constant_coordinate_stays_finite(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-1, 1, (15, 3))
        xs[:, 1] = 4.0
        ys = rng.normal(size=15)
        model = fit(xs, ys, ModelKind.DIAG_QUADRATIC, lam=1e-8)
        assert np.all(np.isfinite(model.coefficients))

    def test_collinear_samples_stay_finite(self):
        t = np.linspace(0, 1, 12)
        xs = np.column_stack([t, 2 * t, -t])
        ys = t**2
        model = fit(xs, ys, ModelKind.DIAG_QUADRATIC, lam=1e-8)
        assert np.all(np.isfinite(model.coefficients))
        assert np.all(np.isfinite(predict_many(model, xs)))

    def test_single_sample_constant(self):
        model = fit(np.array([[0.5]]), np.array([2.0]), ModelKind.CONSTANT, 1e-8)
        assert model.coefficients[0] == pytest.approx(2.0)


class TestNoiseSuppression:
    def test_fit_averages_noise_toward_truth(self):
        rng = np.random.default_rng(8)
        xs = rng.uniform(-2, 2, (400, 2))
        truth = 1.0 + 0.5 * xs[:, 0] - xs[:, 1] + 2.0 * xs[:, 0] ** 2
        ys = truth + rng.normal(0, 1.0, 400)
        model = fit(xs, ys, ModelKind.DIAG_QUADRATIC, lam=1e-6)
        rmse_model = np.sqrt(np.mean((predict_many(model, xs) - truth) ** 2))
        rmse_noise = np.sqrt(np.mean((ys - truth) ** 2))
        assert rmse_model < 0.3 * rmse_noise


class TestShrinkage:
    def test_large_lambda_pulls_slope_to_zero(self):
        xs = np.linspace(-1, 1, 20)[:, None]
        ys = 3.0 * xs[:, 0]
        free = fit(xs, ys, ModelKind.LINEAR, lam=0.0)
        tight = fit(xs, ys, ModelKind.LINEAR, lam=1e6)
        assert abs(free.coefficients[1]) == pytest.approx(3.0, abs=1e-8)
        assert abs(tight.coefficients[1]) < 0.01

    def test_intercept_not_penalized(self):
        xs = np.linspace(-1, 1, 20)[:, None]
        ys = np.full(20, 9.0)
        tight = fit(xs, ys, ModelKind.LINEAR, lam=1e6)
        assert tight.coefficients[0] == pytest.approx(9.0, abs=1e-4)


class TestMinimize:
    def _model(self, kind, coef, d):
        return RegressionModel(kind, np.asarray(coef, float), 0.0, np.zeros(d), np.ones(d))

    def test_convex_vertex_and_clipping(self):
        # 1 + (x0 - 2)^2 + (x1 + 7)^2 on [-5, 5]^2: vertex 2, clipped -5
        m = self._model(ModelKind.DIAG_QUADRATIC, [54.0, -4.0, 14.0, 1.0, 1.0], 2)
        assert np.array_equal(minimize(m, -5.0, 5.0), [2.0, -5.0])

    def test_concave_and_flat_coordinates_go_to_lower_end(self):
        # x0: -(x0 - 1)^2 is lowest at -5; x1: 3 * x1 is lowest at -5;
        # x2: -x2 is lowest at 5
        m = self._model(
            ModelKind.DIAG_QUADRATIC, [0.0, 2.0, 3.0, -1.0, -1.0, 0.0, 0.0], 3
        )
        assert np.array_equal(minimize(m, -5.0, 5.0), [-5.0, -5.0, 5.0])
        with pytest.raises(ValueError):
            minimize(self._model(ModelKind.LINEAR, [0.0, 3.0, -1.0], 2), -5.0, 5.0)

    def test_brute_force_grid_agrees(self):
        rng = np.random.default_rng(8)
        grid = np.linspace(-3.0, 3.0, 6001)
        for _ in range(20):
            coef = rng.normal(size=5)
            m = self._model(ModelKind.DIAG_QUADRATIC, coef, 2)
            x = minimize(m, -3.0, 3.0)
            for j in range(2):
                vals = coef[1 + j] * grid + coef[3 + j] * grid * grid
                best = grid[np.argmin(vals)]
                assert abs(x[j] - best) <= 1e-3 + 1e-12

    def test_recovers_sphere_optimum_from_samples(self):
        rng = np.random.default_rng(9)
        xs = rng.uniform(-100, 100, (40, 5))
        m = fit(xs, np.sum(xs * xs, axis=1), ModelKind.DIAG_QUADRATIC, lam=0.0)
        assert np.allclose(minimize(m, -100.0, 100.0), 0.0, atol=1e-8)


class TestLooRankCorrelation:
    @staticmethod
    def _rank(v):
        return np.argsort(np.argsort(v))

    def test_matches_brute_force_refits(self):
        # at lam = 0 the fit's predictions do not depend on standardization,
        # so refitting without each sample is an exact oracle
        rng = np.random.default_rng(12)
        xs = rng.uniform(-2, 2, (25, 3))
        ys = rng.normal(size=25) + xs @ np.array([1.0, -0.5, 0.2])
        for kind in (ModelKind.LINEAR, ModelKind.DIAG_QUADRATIC):
            loo = np.array([
                predict(fit(np.delete(xs, i, 0), np.delete(ys, i), kind, 0.0), xs[i])
                for i in range(len(ys))
            ])
            want = np.corrcoef(self._rank(loo), self._rank(ys))[0, 1]
            got = loo_rank_correlation(xs, ys, kind, lam=0.0)
            assert got == pytest.approx(want, abs=1e-12)

    def test_exact_model_ranks_perfectly(self):
        rng = np.random.default_rng(13)
        xs = rng.uniform(-3, 3, (40, 4))
        ys = np.sum((xs - 1.0) ** 2, axis=1)
        assert loo_rank_correlation(xs, ys, ModelKind.DIAG_QUADRATIC, 1e-6) == pytest.approx(1.0)

    def test_constant_model_ranks_backwards(self):
        rng = np.random.default_rng(14)
        xs = rng.uniform(-1, 1, (10, 2))
        ys = rng.normal(size=10)
        assert loo_rank_correlation(xs, ys, ModelKind.CONSTANT, 1e-6) == pytest.approx(-1.0)


class TestValidation:
    def test_shape_errors(self):
        with pytest.raises(ValueError):
            fit(np.zeros((3,)), np.zeros(3), ModelKind.CONSTANT, 1e-6)
        with pytest.raises(ValueError):
            fit(np.zeros((3, 2)), np.zeros(4), ModelKind.CONSTANT, 1e-6)

    def test_non_finite_rejected(self):
        xs = np.zeros((3, 2))
        ys = np.array([1.0, np.nan, 2.0])
        with pytest.raises(ValueError):
            fit(xs, ys, ModelKind.CONSTANT, 1e-6)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            fit(np.zeros((3, 1)), np.zeros(3), ModelKind.CONSTANT, lam=-1.0)

    def test_predict_dimension_checked(self):
        model = fit(np.zeros((3, 2)), np.zeros(3), ModelKind.CONSTANT, 1e-6)
        with pytest.raises(ValueError):
            predict(model, np.zeros(3))
