import numpy as np
import pytest

from dpsea.benchmarks import (
    FUNCTION_IDS,
    SIGMA_MAX,
    NoiseModel,
    evaluate,
    evaluate_many,
    make_function,
    optimum,
)
from dpsea.stochastics import Budget, RngState, resample_many


def reference_evaluate_many(fn, xs):
    """The four functions by ``np.sum`` and ``np.prod``, which
    ``evaluate_many`` must match bit for bit."""
    if fn.name == "sphere":
        return np.sum(xs * xs, axis=1)
    if fn.name == "griewank":
        z = xs - 100.0
        s = np.sum(z * z, axis=1) / 4000.0
        p = np.prod(np.cos(z / np.sqrt(np.arange(1, fn.dimension + 1))), axis=1)
        return s - p + 1.0
    if fn.name == "rastrigin1":
        return fn.rastrigin_constant + np.sum(
            xs * xs - 10.0 * np.cos(2.0 * np.pi * xs), axis=1
        )
    a = xs[:, :-1]
    b = xs[:, 1:]
    return np.sum(100.0 * (b - a * a) ** 2 + (a - 1.0) ** 2, axis=1)


class TestDefaults:
    def test_default_dimensions_and_bounds(self):
        expect = {
            "sphere": (5, -100.0, 100.0),
            "griewank": (50, -600.0, 600.0),
            "rastrigin1": (50, -5.12, 5.12),
            "rosenbrock": (50, -50.0, 50.0),
        }
        for name, (dim, lo, hi) in expect.items():
            fn = make_function(name)
            assert (fn.dimension, fn.lower_bound, fn.upper_bound) == (dim, lo, hi)

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError):
            make_function("ackley")

    def test_rastrigin_constant_defaults_to_10d(self):
        assert make_function("rastrigin1").rastrigin_constant == 500.0
        assert make_function("rastrigin1", dimension=10).rastrigin_constant == 100.0

    def test_rastrigin_constant_above_the_bound_rejected(self):
        # an additive constant on the fitness, bounded as NoiseModel's mu: a
        # DPSEA run at 1e308 raised "regression produced non-finite coefficients"
        for const in (SIGMA_MAX, -SIGMA_MAX):
            fn = make_function("rastrigin1", rastrigin_constant=const)
            assert fn.rastrigin_constant == const
        for const in (1e308, -1e308, np.nextafter(SIGMA_MAX, np.inf), np.nan):
            with pytest.raises(ValueError, match="SIGMA_MAX"):
                make_function("rastrigin1", rastrigin_constant=const)


class TestEvaluate:
    def test_sphere_at_origin(self):
        fn = make_function("sphere")
        assert evaluate(fn, np.zeros(5)) == 0.0

    def test_sphere_hand_sum(self):
        # oracle: explicit sum of squares
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert evaluate(make_function("sphere"), x) == sum(v * v for v in x)
        assert evaluate(make_function("sphere"), x) == 55.0

    def test_griewank_at_shifted_optimum(self):
        fn = make_function("griewank")
        assert abs(evaluate(fn, np.full(50, 100.0))) < 1e-12

    def test_rosenbrock_at_ones(self):
        fn = make_function("rosenbrock")
        assert evaluate(fn, np.ones(50)) == 0.0

    def test_rastrigin_at_origin_cancels_constant(self):
        fn = make_function("rastrigin1")  # constant 10*D
        assert abs(evaluate(fn, np.zeros(50))) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(make_function("sphere"), np.zeros(4))

    def test_out_of_bounds_rejected(self):
        fn = make_function("sphere")
        x = np.zeros(5)
        x[2] = 100.5
        with pytest.raises(ValueError):
            evaluate(fn, x)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        for name in FUNCTION_IDS:
            fn = make_function(name)
            xs = rng.uniform(fn.lower_bound, fn.upper_bound, (20, fn.dimension))
            batch = evaluate_many(fn, xs)
            single = [evaluate(fn, x) for x in xs]
            assert np.allclose(batch, single, rtol=1e-14)

    @pytest.mark.parametrize("name", FUNCTION_IDS)
    def test_batch_is_bit_for_bit_the_sum_and_prod_formulas(self, name):
        rng = np.random.default_rng(7)
        for dim in (1, 2, 5, None):
            if dim == 1 and name == "rosenbrock":
                continue
            fn = make_function(name, dimension=dim)
            for n in (1, 3, 90, 190):
                xs = rng.uniform(fn.lower_bound, fn.upper_bound, (n, fn.dimension))
                assert np.array_equal(evaluate_many(fn, xs),
                                      reference_evaluate_many(fn, xs)), (dim, n)


class TestOptimum:
    def test_optimum_locations_and_values(self):
        fn = make_function("sphere")
        loc, val = optimum(fn)
        assert val == 0.0 and np.all(loc == 0)
        loc, val = optimum(make_function("griewank"))
        assert val == 0.0 and np.all(loc == 100.0)
        loc, val = optimum(make_function("rosenbrock"))
        assert val == 0.0 and np.all(loc == 1.0)

    def test_rastrigin_verbatim_constant(self):
        fn = make_function("rastrigin1", rastrigin_constant=200.0)
        loc, val = optimum(fn)
        assert val == -300.0  # 200 - 10*50
        assert abs(evaluate(fn, loc) - val) < 1e-12

    def test_evaluating_optimum_returns_optimum(self):
        for name in FUNCTION_IDS:
            fn = make_function(name)
            loc, val = optimum(fn)
            assert abs(evaluate(fn, loc) - val) < 1e-12

    def test_no_point_beats_the_optimum(self):
        rng = np.random.default_rng(42)
        for name in FUNCTION_IDS:
            fn = make_function(name)
            _, val = optimum(fn)
            xs = rng.uniform(fn.lower_bound, fn.upper_bound, (10_000, fn.dimension))
            assert np.all(evaluate_many(fn, xs) >= val - 1e-9)

    def test_sphere_griewank_rosenbrock_nonnegative(self):
        rng = np.random.default_rng(7)
        for name in ("sphere", "griewank", "rosenbrock"):
            fn = make_function(name)
            xs = rng.uniform(fn.lower_bound, fn.upper_bound, (5_000, fn.dimension))
            assert np.all(evaluate_many(fn, xs) >= 0.0)


class TestNoisyEvaluate:
    """Noisy evaluation goes through ``stochastics.resample_many``."""

    def noisy(self, fn, xs, noise, rng, rs=1):
        return resample_many(fn, xs, rs, noise, rng, Budget(len(xs), 1, rs))

    def test_zero_sigma_is_exact(self):
        fn = make_function("sphere")
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        got = self.noisy(fn, x[None], NoiseModel(0.0, 0.0), RngState(1))
        assert got[0] == evaluate(fn, x)

    def test_same_seed_same_output(self):
        fn = make_function("sphere")
        xs = np.zeros((3, 5))
        noise = NoiseModel(0.0, 1.0)
        a = self.noisy(fn, xs, noise, RngState(99))
        b = self.noisy(fn, xs, noise, RngState(99))
        assert np.array_equal(a, b)

    def test_noise_mean_near_true_value(self):
        fn = make_function("sphere")
        noise = NoiseModel(0.0, 1.0)
        draws = self.noisy(fn, np.zeros((10_000, 5)), noise, RngState(5))
        assert abs(np.mean(draws)) < 0.04  # ~4 sigma / sqrt(n)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(0.0, -1.0)

    @pytest.mark.parametrize("mu, sigma", [
        (0.0, np.inf), (0.0, np.nan), (np.inf, 1.0), (-np.inf, 1.0), (np.nan, 1.0),
    ])
    def test_non_finite_noise_rejected(self, mu, sigma):
        with pytest.raises(ValueError, match="finite"):
            NoiseModel(mu, sigma)

    def test_sigma_above_the_bound_rejected(self):
        # 1e308 times a normal draw overflowed; the bound itself is accepted
        assert NoiseModel(0.0, SIGMA_MAX).sigma == SIGMA_MAX
        for sigma in (1e308, np.nextafter(SIGMA_MAX, np.inf)):
            with pytest.raises(ValueError, match="SIGMA_MAX"):
                NoiseModel(0.0, sigma)

    def test_mean_above_the_bound_rejected(self):
        # a run at mu 1e308 raised "regression produced non-finite
        # coefficients"; the bound itself is accepted, either sign
        for mu in (SIGMA_MAX, -SIGMA_MAX):
            assert NoiseModel(mu, 1.0).mu == mu
        for mu in (1e308, -1e308, np.nextafter(SIGMA_MAX, np.inf)):
            with pytest.raises(ValueError, match="SIGMA_MAX"):
                NoiseModel(mu, 1.0)

    def test_sample_mean_converges(self):
        # |mean - f(x)| < 4 sigma / sqrt(n) in >= 99% of repeated trials
        fn = make_function("sphere")
        x = np.ones(5)
        truth = evaluate(fn, x)
        noise = NoiseModel(0.0, 1.0)
        n = 64
        trials = 1000
        # each row's value is the mean of n independent noisy evaluations
        means = self.noisy(fn, np.tile(x, (trials, 1)), noise, RngState(11), rs=n)
        hits = np.sum(np.abs(means - truth) < 4.0 / np.sqrt(n))
        assert hits >= 0.99 * trials
