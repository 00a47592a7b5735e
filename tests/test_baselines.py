import math

import numpy as np
import pytest

from dpsea.baselines import (
    CgaConfig,
    DeConfig,
    PsoConfig,
    _distinct_triples,
    inertia_weight,
    run_cga,
    run_de,
    run_pso,
)
from dpsea.benchmarks import FUNCTION_IDS, SIGMA_MAX, NoiseModel, evaluate, make_function
from dpsea.ga import GaParams
from dpsea.stochastics import RngState


def identity_holds(budget):
    return (
        budget.pop_size * budget.total_it * budget.rs - budget.total_unchanged
        == budget.total_eval
    )


class TestConfigs:
    def test_de_validation(self):
        with pytest.raises(ValueError):
            DeConfig(pop_size=3)
        with pytest.raises(ValueError):
            DeConfig(cf=1.5)

    def test_pso_validation(self):
        with pytest.raises(ValueError):
            PsoConfig(w_start=0.5, w_end=0.9)
        with pytest.raises(ValueError):
            PsoConfig(phi_min=3.0, phi_max=2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_rejected(self, bad):
        with pytest.raises(ValueError, match="f_scale"):
            DeConfig(f_scale=bad)
        for name in ("w_start", "w_end", "phi_min", "phi_max"):
            with pytest.raises(ValueError, match=name):
                PsoConfig(**{name: bad})

    @pytest.mark.parametrize("make", [
        lambda: PsoConfig(pop_size=0),
        lambda: CgaConfig(rs=0),
        lambda: DeConfig(rs=0),
        lambda: PsoConfig(rs=0),
    ])
    def test_pop_size_and_rs_below_1_rejected(self, make):
        # check_budget sets these limits for every algorithm; PSO at
        # pop_size 0 once died in its run with ZeroDivisionError
        with pytest.raises(ValueError, match="pop_size and rs must be >= 1"):
            make()

    @pytest.mark.parametrize("kwargs", [
        {"w_start": 2.0, "w_end": 2.0},  # the velocity doubled until it overflowed
        {"w_start": 1e308},
        {"w_start": np.nextafter(1.0, 2.0)},
        {"w_end": -1.5},
        {"phi_max": 1e300},
        {"phi_min": -1e300},
        {"phi_max": np.nextafter(SIGMA_MAX, np.inf)},
    ])
    def test_pso_inertia_and_phi_bounded(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            PsoConfig(**kwargs)

    def test_pso_bounds_accepted(self):
        cfg = PsoConfig(w_start=1.0, w_end=-1.0, phi_min=-SIGMA_MAX, phi_max=SIGMA_MAX)
        assert (cfg.w_start, cfg.phi_max) == (1.0, SIGMA_MAX)

    @pytest.mark.parametrize("f_scale", [1e308, -1e308, np.nextafter(SIGMA_MAX, np.inf)])
    def test_de_f_scale_bounded(self, f_scale):
        # at 1e308 the mutant overflowed
        with pytest.raises(ValueError, match="f_scale"):
            DeConfig(f_scale=f_scale)
        assert DeConfig(f_scale=-SIGMA_MAX).f_scale == -SIGMA_MAX

    @pytest.mark.parametrize("name", FUNCTION_IDS)
    def test_runs_at_the_bounds_stay_finite(self, name):
        fn = make_function(name, dimension=5)
        noise = NoiseModel(0.0, 0.5)
        pso = PsoConfig(w_start=1.0, w_end=-1.0, phi_min=-SIGMA_MAX, phi_max=SIGMA_MAX,
                        total_eval=3000)
        with np.errstate(over="raise", invalid="raise"):
            results = [run_pso(fn, noise, pso, RngState(1))]
            for f_scale in (SIGMA_MAX, -SIGMA_MAX):
                de = DeConfig(f_scale=f_scale, total_eval=3000)
                results.append(run_de(fn, noise, de, RngState(1)))
        assert all(np.isfinite(r.best_fitness) for r in results)

    def test_infeasible_budget_rejected(self):
        # rejected on construction: the first population costs pop_size * rs
        with pytest.raises(ValueError):
            CgaConfig(rs=100, total_eval=5000)  # 100 * 100 > 5000
        with pytest.raises(ValueError):
            DeConfig(rs=5, total_eval=249)  # 50 * 5 > 249
        with pytest.raises(ValueError):
            PsoConfig(rs=3, total_eval=59)  # 20 * 3 > 59
        assert PsoConfig(rs=3, total_eval=60).total_eval == 60


class TestBudgetIdentity:
    def test_cga_exact(self):
        fn = make_function("sphere")
        noise = NoiseModel(0.0, 0.5)
        for rs in (1, 2, 5):
            cfg = CgaConfig(rs=rs, total_eval=10_000)
            res = run_cga(fn, noise, cfg, RngState(3))
            assert identity_holds(res.budget)
            assert res.budget.total_it == 10_000 // (100 * rs)
            # elites skip on every generation after the first
            expected_skip = 10 * rs * (res.budget.total_it - 1)
            assert res.budget.total_unchanged == expected_skip

    def test_de_exact(self):
        fn = make_function("sphere")
        for rs in (1, 4):
            cfg = DeConfig(rs=rs, total_eval=5_000)
            res = run_de(fn, NoiseModel(0.0, 0.5), cfg, RngState(3))
            assert identity_holds(res.budget)
            assert res.budget.total_unchanged == 0

    def test_pso_exact(self):
        fn = make_function("sphere")
        for rs in (1, 4):
            cfg = PsoConfig(rs=rs, total_eval=5_000)
            res = run_pso(fn, NoiseModel(0.0, 0.5), cfg, RngState(3))
            assert identity_holds(res.budget)
            assert res.budget.total_unchanged == 0

    def test_independent_eval_count(self, monkeypatch):
        # count actual objective calls, independently of Budget.charge
        import dpsea.stochastics as st

        fn = make_function("sphere")
        calls = {"n": 0}

        orig_resample = st.resample_many

        def counting_resample(fn_, xs, rs, noise, rng, budget):
            calls["n"] += np.asarray(xs).shape[0] * rs
            return orig_resample(fn_, xs, rs, noise, rng, budget)

        monkeypatch.setattr(st, "resample_many", counting_resample)
        monkeypatch.setattr("dpsea.baselines.resample_many", counting_resample)
        cfg = CgaConfig(rs=2, total_eval=8_000)
        res = run_cga(fn, NoiseModel(0.0, 0.5), cfg, RngState(1))
        assert calls["n"] == res.budget.total_eval


class TestDistinctTriples:
    def test_all_distinct_and_avoid_target(self):
        rng = RngState(9)
        for _ in range(50):
            r = _distinct_triples(10, rng)
            base = np.arange(10)
            assert r.shape == (10, 3)
            assert np.all(r[:, 0] != r[:, 1])
            assert np.all(r[:, 0] != r[:, 2])
            assert np.all(r[:, 1] != r[:, 2])
            for j in range(3):
                assert np.all(r[:, j] != base)

    def test_minimum_population(self):
        rng = RngState(2)
        r = _distinct_triples(4, rng)
        for row, trio in enumerate(r):
            assert sorted(set(trio) | {row}) == [0, 1, 2, 3]


class TestDe:
    def test_noiseless_population_never_worsens(self):
        fn = make_function("sphere")
        cfg = DeConfig(total_eval=10_000)
        res = run_de(fn, NoiseModel(0.0, 0.0), cfg, RngState(4))
        bests = [t.best_fitness for t in res.trace]
        assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))
        assert bests[-1] < bests[0]

    def test_solves_noiseless_sphere(self):
        fn = make_function("sphere")
        cfg = DeConfig(total_eval=50_000)
        res = run_de(fn, NoiseModel(0.0, 0.0), cfg, RngState(5))
        assert res.best_fitness < 1e-6
        assert res.best_fitness == pytest.approx(evaluate(fn, res.best_genome))

    def test_trials_respect_bounds(self):
        fn = make_function("sphere")
        cfg = DeConfig(total_eval=3_000)
        res = run_de(fn, NoiseModel(0.0, 1.0), cfg, RngState(6))
        assert np.all(np.abs(res.best_genome) <= 100.0)


class TestInertiaWeight:
    def test_endpoints(self):
        assert inertia_weight(0, 10, 1.0, 0.7) == 1.0
        assert inertia_weight(9, 10, 1.0, 0.7) == pytest.approx(0.7)

    def test_midpoint(self):
        assert inertia_weight(5, 11, 1.0, 0.7) == pytest.approx(0.85)

    def test_single_iteration(self):
        assert inertia_weight(0, 1, 1.0, 0.7) == 1.0

    def test_monotone_decreasing(self):
        ws = [inertia_weight(i, 20, 1.0, 0.7) for i in range(20)]
        assert all(b <= a for a, b in zip(ws, ws[1:]))


class TestPso:
    def test_solves_noiseless_sphere(self):
        fn = make_function("sphere")
        cfg = PsoConfig(total_eval=40_000)
        res = run_pso(fn, NoiseModel(0.0, 0.0), cfg, RngState(7))
        assert res.best_fitness < 1e-6

    def test_gbest_trace_monotone(self):
        fn = make_function("sphere")
        cfg = PsoConfig(total_eval=5_000)
        res = run_pso(fn, NoiseModel(0.0, 0.5), cfg, RngState(8))
        bests = [t.best_fitness for t in res.trace]
        assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))

    def test_positions_respect_bounds(self):
        fn = make_function("sphere")
        cfg = PsoConfig(total_eval=2_000)
        res = run_pso(fn, NoiseModel(0.0, 1.0), cfg, RngState(9))
        assert np.all(np.abs(res.best_genome) <= 100.0)


class TestCga:
    def test_solves_noiseless_sphere(self):
        fn = make_function("sphere")
        cfg = CgaConfig(total_eval=50_000)
        res = run_cga(fn, NoiseModel(0.0, 0.0), cfg, RngState(10))
        assert res.best_fitness < 1e-3

    def test_deterministic(self):
        fn = make_function("sphere")
        cfg = CgaConfig(total_eval=5_000)
        noise = NoiseModel(0.0, 0.5)
        a = run_cga(fn, noise, cfg, RngState(11))
        b = run_cga(fn, noise, cfg, RngState(11))
        assert a.best_fitness == b.best_fitness
        assert np.array_equal(a.best_genome, b.best_genome)

    def test_custom_ga_params(self):
        fn = make_function("sphere")
        cfg = CgaConfig(ga=GaParams(pop_size=20, n_elites=2), total_eval=2_000)
        res = run_cga(fn, NoiseModel(0.0, 0.0), cfg, RngState(12))
        assert res.budget.total_it == 100
        assert identity_holds(res.budget)
