import numpy as np
import pytest

from dpsea.benchmarks import evaluate_many, make_function
from dpsea.regression import (
    ModelKind,
    RegressionModel,
    _design_matrix,
    _model,
    _tril_inv,
    fit,
    fit_rated,
    minimize,
    predict_many,
    select_kind,
)


def oracle_fit(xs, ys, kind, lam):
    """Brute-force normal-equations solve in standardized space, expanded
    back to original coordinates by hand. Independent of the library's path,
    one Cholesky factor and its triangular inverse in ``fit`` and
    ``fit_rated``, with SVD least squares only where that factor fails."""
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


def reference_design_matrix(xs, kind):
    """The design from ``xs.std`` and ``hstack``, which ``_design_matrix``
    must match bit for bit."""
    center = xs.mean(axis=0)
    scale = xs.std(axis=0)
    scale = np.where(scale == 0.0, 1.0, scale)
    z = (xs - center) / scale
    ones = np.ones((z.shape[0], 1))
    if kind is ModelKind.CONSTANT:
        return ones, center, scale
    if kind is ModelKind.LINEAR:
        return np.hstack([ones, z]), center, scale
    return np.hstack([ones, z, z * z]), center, scale


def reference_fit_rated(xs, ys, kind, lam):
    """``fit_rated``'s coefficients and fidelity with the penalty added
    through ``np.diag``, ``np.linalg.inv`` of the whole factor and each rank
    from two ``argsort`` calls."""
    a, center, scale = reference_design_matrix(xs, kind)
    pen = np.full(a.shape[1], float(lam))
    pen[0] = 0.0
    inv = np.linalg.inv(np.linalg.cholesky(a.T @ a + np.diag(pen)))
    w = inv @ a.T
    wy = w @ ys
    coef = _model(inv.T @ wy, kind, center, scale).coefficients
    n = ys.shape[0]
    leverage = np.einsum("ij,ij->j", w, w)
    loo = ys - (ys - w.T @ wy) / np.maximum(1.0 - leverage, 1e-12)
    rank = lambda v: np.argsort(np.argsort(v, kind="stable"), kind="stable")
    d = rank(loo) - rank(ys)
    return coef, 1.0 - 6.0 * float(d @ d) / (n * (n * n - 1))


def reference_predict_many(model, xs):
    """``predict_many`` summed from ``np.full`` of the intercept."""
    c = model.coefficients
    d = model.dimension
    out = np.full(xs.shape[0], c[0])
    if model.kind is not ModelKind.CONSTANT:
        out = out + xs @ c[1 : d + 1]
    if model.kind is ModelKind.DIAG_QUADRATIC:
        out = out + (xs * xs) @ c[d + 1 :]
    return out


class TestSelectKind:
    def test_thresholds(self):
        d = 5
        assert select_kind(2 * d + 2, d) is ModelKind.DIAG_QUADRATIC
        assert select_kind(2 * d + 1, d) is ModelKind.LINEAR
        assert select_kind(d + 2, d) is ModelKind.LINEAR
        assert select_kind(d + 1, d) is ModelKind.CONSTANT
        assert select_kind(1, d) is ModelKind.CONSTANT

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            select_kind(0, 3)


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

    @pytest.mark.parametrize("lam", [1e-6, 0.0])
    def test_the_initial_designs_fit_matches_oracle(self, lam):
        # the shape of a 50-D run's initial design: 100 + 40 * 102 uniform
        # rows of noisy rastrigin1 values, 101 columns
        rng = np.random.default_rng(23)
        fn = make_function("rastrigin1")
        xs = rng.uniform(fn.lower_bound, fn.upper_bound, (4180, 50))
        ys = evaluate_many(fn, xs) + rng.normal(0, 0.5, 4180)
        got = fit(xs, ys, ModelKind.DIAG_QUADRATIC, lam).coefficients
        want = oracle_fit(xs, ys, ModelKind.DIAG_QUADRATIC, lam)
        assert np.all(np.abs(got - want) / np.maximum(np.abs(want), 1.0) < 1e-8)

    def test_a_well_posed_fit_makes_no_lstsq_call(self, monkeypatch):
        def no_lstsq(*args, **kwargs):
            raise AssertionError("lstsq on a system with a Cholesky factor")

        monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
        rng = np.random.default_rng(24)
        for kind in ModelKind:
            for lam in (0.0, 1e-6):
                xs = rng.uniform(-3, 3, (40, 5))
                fit(xs, rng.normal(size=40), kind, lam)

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
            got = predict_many(model, np.array([[1.0, 2.0]]))[0]
            assert got == pytest.approx(7.0, abs=1e-6)

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
        return RegressionModel(kind, np.asarray(coef, float), d)

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


class TestFitRated:
    def test_matches_oracle_on_criterion_5_cases(self):
        # the case generator of acceptance criterion 5, lam = 0 included
        rng = np.random.default_rng(99)
        kinds = [ModelKind.CONSTANT, ModelKind.LINEAR, ModelKind.DIAG_QUADRATIC]
        for trial in range(300):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(2 * d + 3, 50))
            lam = float(rng.choice([0.0, 1e-8, 1e-6, 1e-3]))
            kind = kinds[trial % 3]
            xs = rng.uniform(-3, 3, (n, d))
            ys = rng.normal(0, 1, n) + (xs * xs) @ rng.uniform(-1, 1, d)
            model, _ = fit_rated(xs, ys, kind, lam)
            want = oracle_fit(xs, ys, kind, lam)
            rel = np.abs(model.coefficients - want) / np.maximum(np.abs(want), 1.0)
            assert np.all(rel < 1e-8), (trial, kind, lam)
            assert model.kind == kind

    def test_matches_oracle_on_a_clustered_50d_archive(self):
        # a tight cluster in a wide domain, as a 50-D run's archives are
        rng = np.random.default_rng(15)
        xs = rng.normal(3.0, 0.05, (150, 50))
        ys = np.sum(xs * xs - 10 * np.cos(2 * np.pi * xs), axis=1)
        for lam in (1e-6, 1e-3):
            model, _ = fit_rated(xs, ys, ModelKind.DIAG_QUADRATIC, lam)
            want = oracle_fit(xs, ys, ModelKind.DIAG_QUADRATIC, lam)
            rel = np.abs(model.coefficients - want) / np.maximum(np.abs(want), 1.0)
            assert np.all(rel < 1e-8), lam

    def test_factorization_failure_falls_back_to_fit(self):
        # duplicated rows give a linear basis zero columns, so A'A is
        # singular at lam = 0 and has no Cholesky factor
        xs = np.tile(np.array([[1.0, 2.0]]), (6, 1))
        ys = np.arange(6.0)
        model, fidelity = fit_rated(xs, ys, ModelKind.LINEAR, 0.0)
        assert fidelity == 0.0
        assert np.array_equal(model.coefficients,
                              fit(xs, ys, ModelKind.LINEAR, 0.0).coefficients)

    def test_degenerate_samples_stay_finite(self):
        dup = np.tile(np.array([[1.0, 2.0]]), (8, 1))
        for kind in ModelKind:
            model, fidelity = fit_rated(dup, np.full(8, 3.0), kind, 1e-8)
            assert np.all(np.isfinite(model.coefficients))
            assert predict_many(model, np.array([[1.0, 2.0]]))[0] == pytest.approx(3.0)
            assert fidelity == 0.0  # constant ys

    def test_too_few_samples_rate_zero(self):
        xs = np.array([[0.0], [1.0]])
        model, fidelity = fit_rated(xs, np.array([1.0, 3.0]), ModelKind.LINEAR, 1e-6)
        assert fidelity == 0.0
        assert predict_many(model, np.array([[0.5]]))[0] == pytest.approx(2.0, abs=1e-5)

    def test_validates_like_fit(self):
        with pytest.raises(ValueError):
            fit_rated(np.zeros((3, 2)), np.zeros(4), ModelKind.CONSTANT, 1e-6)
        with pytest.raises(ValueError):
            fit_rated(np.zeros((3, 1)), np.zeros(3), ModelKind.CONSTANT, lam=-1.0)
        with pytest.raises(ValueError):
            fit_rated(np.zeros((3, 1)), np.array([1.0, np.inf, 0.0]),
                      ModelKind.CONSTANT, 1e-6)


class TestLooRankCorrelation:
    """The fidelity ``fit_rated`` returns."""

    @staticmethod
    def _rank(v):
        return np.argsort(np.argsort(v))

    def test_matches_brute_force_refits(self):
        # at lam = 0 the fit's predictions do not depend on standardization,
        # so refitting without each sample is an exact oracle
        rng = np.random.default_rng(12)
        xs = rng.uniform(-2, 2, (25, 3))
        ys = rng.normal(size=25) + xs @ np.array([1.0, -0.5, 0.2])
        # and the clustered 50-D archive below: 101 columns, the shape of a
        # 50-D run's cluster fits
        rng50 = np.random.default_rng(15)
        xs50 = rng50.normal(3.0, 0.05, (150, 50))
        ys50 = np.sum(xs50 * xs50 - 10 * np.cos(2 * np.pi * xs50), axis=1)
        for xs, ys, kind in ((xs, ys, ModelKind.LINEAR),
                             (xs, ys, ModelKind.DIAG_QUADRATIC),
                             (xs50, ys50, ModelKind.DIAG_QUADRATIC)):
            loo = np.array([
                predict_many(fit(np.delete(xs, i, 0), np.delete(ys, i), kind, 0.0),
                             xs[i][None])[0]
                for i in range(len(ys))
            ])
            want = np.corrcoef(self._rank(loo), self._rank(ys))[0, 1]
            _, got = fit_rated(xs, ys, kind, lam=0.0)
            assert got == pytest.approx(want, abs=1e-12)

    def test_exact_model_ranks_perfectly(self):
        rng = np.random.default_rng(13)
        xs = rng.uniform(-3, 3, (40, 4))
        ys = np.sum((xs - 1.0) ** 2, axis=1)
        _, fidelity = fit_rated(xs, ys, ModelKind.DIAG_QUADRATIC, 1e-6)
        assert fidelity == pytest.approx(1.0)

    def test_constant_model_ranks_backwards(self):
        rng = np.random.default_rng(14)
        xs = rng.uniform(-1, 1, (10, 2))
        ys = rng.normal(size=10)
        _, fidelity = fit_rated(xs, ys, ModelKind.CONSTANT, 1e-6)
        assert fidelity == pytest.approx(-1.0)


class TestFitInternals:
    """The fit's kernels against the reference formulas above: bit for bit
    up to 32 columns (15-D), where ``np.linalg.inv`` alone inverts the
    factor."""

    @staticmethod
    def samples(rng, n, d, ties=False):
        xs = rng.uniform(-3, 3, (n, d))
        xs[:, 0] = 1.5  # a degenerate coordinate, spread taken as 1
        ys = rng.normal(0, 1, n) + (xs * xs) @ rng.uniform(-1, 1, d)
        return xs, np.round(ys) if ties else ys

    def test_design_matrix_is_bit_for_bit_the_std_and_hstack_design(self):
        rng = np.random.default_rng(21)
        for d in (1, 5, 15, 50):
            xs, _ = self.samples(rng, 190, d)
            for kind in ModelKind:
                got = _design_matrix(xs, kind)
                want = reference_design_matrix(xs, kind)
                for g, w in zip(got, want):
                    assert g.shape == w.shape and np.array_equal(g, w), (d, kind)

    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied"])
    def test_fit_rated_is_bit_for_bit_the_reference_up_to_15d(self, ties):
        rng = np.random.default_rng(22)
        for d in (1, 2, 5, 10, 15):
            for n in (2 * d + 3, 190):
                xs, ys = self.samples(rng, n, d, ties)
                for kind in ModelKind:
                    for lam in (1e-8, 1e-3):  # lam 0 and the flat column: no factor
                        model, fidelity = fit_rated(xs, ys, kind, lam)
                        coef, want = reference_fit_rated(xs, ys, kind, lam)
                        assert np.array_equal(model.coefficients, coef), (d, n, kind, lam)
                        assert fidelity == want, (d, n, kind, lam)
                        q = rng.uniform(-3, 3, (90, d))
                        assert np.array_equal(predict_many(model, q),
                                              reference_predict_many(model, q))

    def test_fit_rated_past_the_leaf_is_the_reference_within_1e12(self):
        # 50-D: 101 columns, inverted by halves, so the bits may move
        rng = np.random.default_rng(23)
        for ties in (False, True):
            xs, ys = self.samples(rng, 190, 50, ties)
            model, fidelity = fit_rated(xs, ys, ModelKind.DIAG_QUADRATIC, 1e-6)
            coef, want = reference_fit_rated(xs, ys, ModelKind.DIAG_QUADRATIC, 1e-6)
            rel = np.abs(model.coefficients - coef) / np.maximum(np.abs(coef), 1.0)
            assert np.all(rel < 1e-12) and fidelity == pytest.approx(want, abs=1e-3)

    @pytest.mark.parametrize("p", [1, 32, 33, 64, 101])
    def test_triangular_inverse_by_halves(self, p):
        # a well-conditioned factor, and one of a Gram matrix with condition
        # number 1e12 (the factor's is 1e6): entries within 1e-12 of the
        # largest, and every entry above the diagonal exactly 0
        rng = np.random.default_rng(p)
        m = rng.normal(size=(p + 5, p))
        q, _ = np.linalg.qr(rng.normal(size=(p, p)))
        ill = (q * np.logspace(0, -12, p)) @ q.T
        for gram in (m.T @ m, (ill + ill.T) / 2):
            low = np.linalg.cholesky(gram)
            got, want = _tril_inv(low), np.linalg.inv(low)
            if p <= 32:
                assert np.array_equal(got, want)
            else:
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
                h = p // 2
                assert not got[:h, h:].any()


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
            predict_many(model, np.zeros((1, 3)))
