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
from dpsea.benchmarks import NoiseModel, evaluate, make_function
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

    def test_infeasible_budget_rejected(self):
        fn = make_function("sphere")
        cfg = CgaConfig(rs=100, total_eval=5000)  # 100 * 100 > 5000
        with pytest.raises(ValueError):
            run_cga(fn, NoiseModel(), cfg, RngState(0))


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
