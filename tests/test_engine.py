import dataclasses
import math

import numpy as np
import pytest

from dpsea import engine, regression
from dpsea.benchmarks import SIGMA_MAX, NoiseModel, evaluate_many, make_function
from dpsea.engine import (
    DpseaParams,
    _coordinate_sweep,
    adaptive_mutation_rate,
    evolve_pseudo,
    initial_design,
    merge_and_resample,
    run,
    self_organize,
)
from dpsea.ga import GaParams
from dpsea.regression import ModelKind
from dpsea.stochastics import Budget, RngState, resample_many


def small_params(**kwargs):
    ga = kwargs.pop("ga", GaParams(pop_size=20, n_elites=2))
    return DpseaParams(ga=ga, **kwargs)


def make_pop(genomes, fits=None):
    """``(genomes, fitness)`` as float arrays; fitness 0, 1, ... by default."""
    genomes = np.array(genomes, float)
    if fits is None:
        fits = np.arange(len(genomes), dtype=float)
    return genomes, np.array(fits, float)


def clusters_of(labels, seeds):
    """Each cluster's member rows, in cluster order."""
    return [np.flatnonzero(labels == k).tolist() for k in range(len(seeds))]


class TestSelfOrganize:
    def test_disjoint_cover_randomized(self):
        fn = make_function("sphere", dimension=3)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 31))
            genomes = rng.uniform(-100, 100, (n, 3))
            labels, seeds = self_organize(genomes, rng.normal(size=n), fn)
            assert labels.shape == (n,)
            seen = [i for rows in clusters_of(labels, seeds) for i in rows]
            assert sorted(seen) == list(range(n))
            assert labels[seeds].tolist() == list(range(len(seeds)))

    def test_radius_one_gives_single_cluster(self):
        fn = make_function("sphere", dimension=3)
        rng = np.random.default_rng(1)
        pop = make_pop(rng.uniform(-100, 100, (20, 3)))
        labels, seeds = self_organize(*pop, fn, radius_fraction=1.0)
        assert len(seeds) == 1
        assert clusters_of(labels, seeds) == [list(range(20))]

    def test_two_blob_oracle_partition(self):
        # two tight blobs in opposite corners: greedy seeding must recover
        # exactly the blob membership
        fn = make_function("sphere", dimension=2)
        rng = np.random.default_rng(2)
        blob_a = np.full((5, 2), -80.0) + rng.normal(0, 0.5, (5, 2))
        blob_b = np.full((5, 2), 80.0) + rng.normal(0, 0.5, (5, 2))
        genomes = np.vstack([blob_a, blob_b])
        fits = [3.0, 4.0, 5.0, 6.0, 7.0, 0.0, 1.0, 2.0, 8.0, 9.0]
        pop = make_pop(genomes, fits)
        labels, seeds = self_organize(*pop, fn, radius_fraction=0.1)
        assert len(seeds) == 2
        # seed of the first cluster is the global best (index 5, blob b)
        assert seeds[0] == 5
        assert clusters_of(labels, seeds) == [list(range(5, 10)), list(range(5))]

    def test_max_clusters_cap_with_leftover_assignment(self):
        fn = make_function("sphere", dimension=1)
        # points at 0, 1, 50, 51, 100; radius = 0.01 * 200 = 2
        genomes = np.array([[0.0], [1.0], [50.0], [51.0], [100.0]])
        pop = make_pop(genomes, [0.0, 1.0, 2.0, 3.0, 4.0])
        labels, seeds = self_organize(*pop, fn, radius_fraction=0.01, max_clusters=2)
        assert len(seeds) == 2
        sizes = sorted(len(rows) for rows in clusters_of(labels, seeds))
        # 100 is a leftover and joins its nearest seed (50)
        assert sizes == [2, 3]

    def test_leftover_tie_goes_to_lower_seed_index(self):
        fn = make_function("sphere", dimension=1)
        # row 2 seeds the first cluster, row 0 the second; row 1 lies 10
        # from both seeds and joins row 0, the seed with the lower index
        pop = make_pop([[-10.0], [0.0], [10.0]], [1.0, 5.0, 0.0])
        labels, seeds = self_organize(*pop, fn, radius_fraction=0.01, max_clusters=2)
        assert seeds.tolist() == [2, 0]
        assert labels.tolist() == [1, 1, 0]

    def test_empty_population_rejected(self):
        fn = make_function("sphere", dimension=2)
        with pytest.raises(ValueError):
            self_organize(*make_pop(np.empty((0, 2))), fn)
        with pytest.raises(ValueError):
            self_organize(*make_pop(np.zeros((3, 2))), fn, max_clusters=0)
        with pytest.raises(ValueError):
            self_organize(*make_pop(np.zeros((3, 2))), fn, radius_fraction=-0.1)


def rate_table(pop_size, p_m=0.3):
    return adaptive_mutation_rate(
        DpseaParams(ga=GaParams(pop_size=pop_size, n_elites=0, p_m=p_m)))


class TestAdaptiveMutationRate:
    def test_hand_values(self):
        # best member of a population of size 5: 0.3 * 0.5 * 1 = 0.15
        assert rate_table(5)[0] == pytest.approx(0.15)
        # worst member: 0.3 * 1.5 * 1 = 0.45
        assert rate_table(5)[-1] == pytest.approx(0.45)
        # size 20: sqrt(5/20) = 0.5 -> 0.3 * 1.5 * 0.5 = 0.225
        assert rate_table(20)[-1] == pytest.approx(0.225)

    def test_clamped(self):
        assert rate_table(500)[0] == 0.05
        assert rate_table(5, p_m=1.0)[-1] == 1.0

    @pytest.mark.parametrize("n", [1, 2, 5, 100, 500])
    def test_table_bit_for_bit(self, n):
        # the expression in this order, rank fraction k / (n - 1), 0 at n = 1
        r = np.arange(n) / (n - 1) if n > 1 else np.zeros(1)
        want = np.clip(0.3 * (0.5 + r) * math.sqrt(engine.S_MIN / n), 0.05, 1.0)
        got = rate_table(n)
        assert got.shape == (n,) and np.array_equal(got, want)


def fitted_population(fn, params, n=8):
    """A measured sphere population, its surrogate and its rate table, as
    run builds them for a switching step."""
    rng = np.random.default_rng(3)
    genomes = rng.uniform(-2, 2, (n, fn.dimension))
    pop = make_pop(genomes, np.sum(genomes**2, axis=1))
    kind = regression.select_kind(n, fn.dimension)
    model, _ = regression.fit_rated(*pop, kind, params.regression_lambda)
    return pop, model, adaptive_mutation_rate(params)


class TestEvolvePseudo:
    def test_zero_true_evaluations(self, monkeypatch):
        fn = make_function("sphere", dimension=2)
        params = small_params(ga=GaParams(pop_size=8, n_elites=2))
        pop, model, rates = fitted_population(fn, params)

        def boom(*args, **kwargs):
            raise AssertionError("pseudo evolution must not touch true fitness")

        import dpsea.benchmarks as bm

        monkeypatch.setattr(bm, "evaluate", boom)
        monkeypatch.setattr(bm, "evaluate_many", boom)
        evolve_pseudo(*pop, model, rates, fn, params, RngState(1))

    def test_offspring_scored_by_model(self):
        fn = make_function("sphere", dimension=2)
        params = small_params(ga=GaParams(pop_size=8, n_elites=2))
        pop, model, rates = fitted_population(fn, params)
        genomes, fitness, source = evolve_pseudo(*pop, model, rates, fn, params,
                                                 RngState(1))
        for i in range(2, 8):
            assert fitness[i] == pytest.approx(
                regression.predict_many(model, genomes[i][None])[0])
        # after one generation both elites are input rows and keep their
        # measured fitness
        assert len(source) == 2 and (source >= 0).all()
        assert np.array_equal(fitness[:2], pop[1][source])
        assert np.array_equal(genomes[:2], pop[0][source])

    def test_model_fit_cached_between_generations(self, monkeypatch):
        # run fits once per switching step; the generations only predict
        fn = make_function("sphere", dimension=2)
        params = small_params(ga=GaParams(pop_size=8, n_elites=2))
        pop, model, rates = fitted_population(fn, params)

        def boom(*args, **kwargs):
            raise AssertionError("evolve_pseudo must not refit the model")

        monkeypatch.setattr(regression, "fit", boom)
        monkeypatch.setattr(regression, "fit_rated", boom)
        genomes, fitness, _ = evolve_pseudo(*pop, model, rates, fn, params, RngState(1))
        evolve_pseudo(genomes, fitness, model, rates, fn, params, RngState(2),
                      generations=5)

    def test_quadratic_model_with_ample_archive(self, monkeypatch):
        # a step's observations are the population and the main generation's
        # offspring, 20 + 18 >= 2 * 5 + 2: every fit is a diagonal quadratic
        fits = []
        real = regression.fit_rated

        def spy(xs, ys, kind, lam):
            fits.append((len(ys), kind))
            return real(xs, ys, kind, lam)

        monkeypatch.setattr(regression, "fit_rated", spy)
        res = run(make_function("sphere"), NoiseModel(0.0, 0.5),
                  small_params(max_total_eval=2000), RngState(1))
        assert len(fits) == len(res.trace) > 0
        assert set(fits) == {(38, ModelKind.DIAG_QUADRATIC)}

    def test_singleton_cluster_evolves(self):
        # a one-member pseudo-population: rank fraction 0, no elites
        fn = make_function("sphere", dimension=2)
        params = small_params(ga=GaParams(pop_size=1, n_elites=0))
        pop, model, rates = fitted_population(fn, params, n=1)
        genomes, fitness, source = evolve_pseudo(*pop, model, rates, fn, params,
                                                 RngState(0))
        assert genomes.shape == (1, 2) and len(source) == 0
        assert fitness[0] == pytest.approx(regression.predict_many(model, genomes[:1])[0])


def spy_on_steps(monkeypatch, fidelity=None):
    """Record each switching step of ``run`` as ``[fidelity, generations,
    calls]``: the ``generations`` that its ``evolve_pseudo`` calls asked for,
    and how many calls it made (none when it earned 0 generations).
    ``fidelity(step)``, when given, replaces the fit's."""
    steps = []
    real_fit, real_evolve = regression.fit_rated, engine.evolve_pseudo

    def fit_rated(*args):
        model, rho = real_fit(*args)
        if fidelity is not None:
            rho = fidelity(len(steps))
        steps.append([rho, 0, 0])
        return model, rho

    def evolve_pseudo(*args):
        steps[-1][1] += args[-1]
        steps[-1][2] += 1
        return real_evolve(*args)

    monkeypatch.setattr(regression, "fit_rated", fit_rated)
    monkeypatch.setattr(engine, "evolve_pseudo", evolve_pseudo)
    return steps


class TestSurrogateGenerations:
    def test_faithful_model_gets_all_generations(self, monkeypatch):
        # noiseless sphere is a diagonal quadratic: every fit ranks unseen
        # points almost exactly
        steps = spy_on_steps(monkeypatch)
        params = small_params(max_total_eval=3000)
        res = run(make_function("sphere"), NoiseModel(0.0, 0.0), params, RngState(2))
        assert len(steps) == len(res.trace) > 5
        for rho, generations, _ in steps:
            assert rho > 0.95
            assert generations == params.t_switch

    def test_model_of_noise_gets_few_or_none(self, monkeypatch):
        # noise 100 times sphere's range: a model ranks unseen points no
        # better than chance and cannot lead the population away
        steps = spy_on_steps(monkeypatch)
        params = small_params(max_total_eval=3000)
        run(make_function("sphere"), NoiseModel(0.0, 1e4), params, RngState(2))
        assert len(steps) > 5
        assert np.mean([rho for rho, _, _ in steps]) < 0.2
        assert np.mean([g for _, g, _ in steps]) < params.t_switch / 4

    def test_scaling_and_rounding(self, monkeypatch):
        cases = ((-0.3, 0), (0.04, 0), (0.26, 3), (0.71, 7), (1.0, 10))
        steps = spy_on_steps(monkeypatch, lambda k: cases[k % len(cases)][0])
        params = small_params(t_switch=10, max_total_eval=3000)
        run(make_function("sphere"), NoiseModel(0.0, 0.5), params, RngState(3))
        assert len(steps) >= len(cases)
        for k, (_, generations, calls) in enumerate(steps):
            assert generations == cases[k % len(cases)][1]
            assert calls == (generations > 0)  # one call per step that earns any

    def test_a_model_is_mapped_only_where_a_step_earns_generations(self, monkeypatch):
        # the initial design's fit is mapped for its minimizer; a step's model
        # only by the surrogate generations it earns
        steps = spy_on_steps(monkeypatch)
        mapped, real = [], regression._coefficients

        def mapping(*args):
            mapped.append(args[0])
            return real(*args)

        monkeypatch.setattr(regression, "_coefficients", mapping)
        run(make_function("sphere"), NoiseModel(0.0, 1.0), DpseaParams(max_total_eval=9000),
            RngState(1))
        earned = sum(calls for _, _, calls in steps)
        assert 0 < earned < len(steps)
        assert len(mapped) == 1 + earned
        assert set(mapped) == {ModelKind.DIAG_QUADRATIC}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("forced", [0.0, 1.0])
    def test_an_unmappable_step_model_fails_only_when_read(self, monkeypatch, forced):
        # every step's model overflows when mapped (scale 1e-200): a run whose
        # steps earn no generations never reads one and finishes
        real = regression.fit_rated

        def unmappable(*args):
            model, rho = real(*args)
            return dataclasses.replace(model, scale=np.full_like(model.scale, 1e-200)), rho

        monkeypatch.setattr(regression, "fit_rated", unmappable)
        steps = spy_on_steps(monkeypatch, lambda k: forced)
        params = small_params(max_total_eval=3000)
        if forced == 0.0:
            res = run(make_function("sphere"), NoiseModel(0.0, 0.5), params, RngState(3))
            assert len(steps) == len(res.trace) > 5
            assert not any(calls for _, _, calls in steps)
        else:
            with pytest.raises(ValueError, match="non-finite coefficients"):
                run(make_function("sphere"), NoiseModel(0.0, 0.5), params, RngState(3))
            assert len(steps) == 1

    def test_t_switch_bounded(self):
        with pytest.raises(ValueError, match="t_switch"):
            small_params(t_switch=engine.T_SWITCH_MAX + 1)

    def test_run_at_the_t_switch_bound_finishes(self, monkeypatch):
        # surrogate generations cost no evaluation: only the bound keeps a
        # step's time finite
        steps = spy_on_steps(monkeypatch)
        params = DpseaParams(t_switch=engine.T_SWITCH_MAX, max_total_eval=3000)
        res = run(make_function("sphere"), NoiseModel(0.0, 0.0), params, RngState(2))
        assert len(steps) == len(res.trace) > 5
        assert max(g for _, g, _ in steps) == engine.T_SWITCH_MAX
        assert res.budget.total_eval <= 3000

    def test_regression_lambda_bounded(self):
        # 1e100 underflowed a 5-D rastrigin1 fit and 1e308 overflowed
        for lam in (2.0**160, 1e100, 1e308, math.inf, math.nan, -1e-300):
            with pytest.raises(ValueError, match="regression_lambda"):
                DpseaParams(regression_lambda=lam)
        assert DpseaParams(regression_lambda=2.0**159).regression_lambda == 2.0**159

    @pytest.mark.parametrize("name", ["sphere", "griewank", "rastrigin1", "rosenbrock"])
    def test_run_at_the_lambda_bound_stays_clean(self, name):
        # no overflow, underflow or invalid value anywhere in the run
        params = DpseaParams(max_total_eval=6000, regression_lambda=engine.LAMBDA_MAX)
        with np.errstate(all="raise"):
            res = run(make_function(name, dimension=5), NoiseModel(0.0, 0.5), params,
                      RngState(1))
        assert len(res.trace) > 0 and np.isfinite(res.best_fitness)


class TestMergeAndResample:
    def test_hand_counted_budget(self):
        # 100 members, 10 exempt elites, rs = 5:
        # charged (100 - 10) * 5 = 450, skipped 10 * 5 = 50
        fn = make_function("sphere", dimension=2)
        params = DpseaParams(ga=GaParams(pop_size=100, n_elites=10), rs_merge=5)
        rng = np.random.default_rng(0)
        genomes, fitness = make_pop(rng.uniform(-50, 50, (100, 2)))
        before = genomes.copy()
        budget = Budget(pop_size=100, total_it=0, rs=5)
        merged = merge_and_resample(
            genomes, fitness, np.arange(10), fn, NoiseModel(0.0, 0.0), RngState(1),
            budget, params
        )
        assert merged is fitness and len(merged) == 100
        assert np.array_equal(genomes, before)
        assert budget.total_eval == 450
        assert budget.total_unchanged == 50

    def test_exempt_members_keep_fitness(self):
        # elite 0 was copied from input row 3: kept; elite 1 was born inside
        # the last GA call (source -1): rescored like the offspring
        fn = make_function("sphere", dimension=2)
        params = small_params(ga=GaParams(pop_size=4, n_elites=2))
        genomes, fitness = make_pop(np.zeros((4, 2)), [1.0, 2.0, 3.0, 4.0])
        budget = Budget(pop_size=4, total_it=0, rs=1)
        merged = merge_and_resample(
            genomes, fitness, np.array([3, -1]), fn, NoiseModel(0.0, 0.0), RngState(1),
            budget, params
        )
        # true sphere value at origin
        assert merged.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert (budget.total_eval, budget.total_unchanged) == (3, 1)

    def test_over_the_cap_returns_none_and_charges_nothing(self):
        # 10 members, 2 exempt elites, rs = 2: the merge costs 16; with 85
        # already spent, a cap of 100 leaves room for 15
        fn = make_function("sphere", dimension=2)
        params = small_params(ga=GaParams(pop_size=10, n_elites=2), rs_merge=2,
                              max_total_eval=100)
        genomes, fitness = make_pop(np.ones((10, 2)))
        before = fitness.copy()
        budget = Budget(pop_size=10, total_it=0, rs=2, total_eval=85)
        args = (genomes, fitness, np.array([0, 1]), fn, NoiseModel(0.0, 1.0))
        merged = merge_and_resample(*args, RngState(1), budget, params)
        assert merged is None
        assert (budget.total_eval, budget.total_unchanged) == (85, 0)
        assert np.array_equal(fitness, before)
        # one evaluation less spent and the same merge fits
        budget.total_eval = 84
        merged = merge_and_resample(*args, RngState(1), budget, params)
        assert len(merged) == 10
        assert (budget.total_eval, budget.total_unchanged) == (100, 4)


class TestZeroGenerationMerge:
    """A merge after a step without surrogate generations, given the true
    fitness of rows ``n_elites:`` that the main generation computed."""

    N, N_ELITES = 10, 2

    def step(self, rs, sigma, max_total_eval=10_000, spent=0):
        """A scored population, its known offspring true fitness, and the
        merge's other arguments."""
        fn = make_function("sphere", dimension=3)
        params = small_params(ga=GaParams(pop_size=self.N, n_elites=self.N_ELITES),
                              rs_merge=rs, max_total_eval=max_total_eval)
        genomes = RngState(5).uniform(fn.lower_bound, fn.upper_bound, (self.N, 3))
        fitness = np.arange(self.N, dtype=float)
        known = evaluate_many(fn, genomes[self.N_ELITES:])
        budget = Budget(pop_size=self.N, total_it=0, rs=rs, total_eval=spent)
        budget.offer(genomes[self.N_ELITES:], known)
        return genomes, fitness, known, fn, NoiseModel(0.1, sigma), budget, params

    @pytest.fixture
    def no_evaluation(self, monkeypatch):
        import dpsea.benchmarks as bm

        def evaluate_many(fn, xs):
            raise AssertionError("known true fitness evaluated again")

        monkeypatch.setattr(bm, "evaluate_many", evaluate_many)

    def test_no_evaluation_and_the_best_left_alone(self, no_evaluation):
        genomes, fitness, known, fn, noise, budget, params = self.step(2, 0.5)
        best_genome, best_fitness = budget.best_genome, budget.best_fitness
        merged = merge_and_resample(genomes, fitness, np.arange(self.N_ELITES), fn, noise,
                                    RngState(1), budget, params, known)
        assert merged is fitness
        assert budget.best_genome is best_genome and budget.best_fitness == best_fitness
        assert (budget.total_eval, budget.total_unchanged) == (16, 4)

    @pytest.mark.parametrize("rs", [1, 3])
    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_bits_and_draws_of_resample_many_on_the_same_rows(self, rs, sigma):
        genomes, fitness, known, fn, noise, budget, params = self.step(rs, sigma)
        want_rng = RngState(7)
        want = resample_many(fn, genomes[self.N_ELITES:], rs, noise, want_rng,
                             Budget(self.N, 0, rs))
        before = fitness.copy()
        rng = RngState(7)
        merge_and_resample(genomes, fitness, np.arange(self.N_ELITES), fn, noise, rng,
                           budget, params, known)
        assert np.array_equal(fitness[self.N_ELITES:], want)
        assert np.array_equal(fitness[:self.N_ELITES], before[:self.N_ELITES])
        assert rng.bit_generator.state == want_rng.bit_generator.state
        assert budget.total_eval == (self.N - self.N_ELITES) * rs

    def test_over_the_cap_returns_none_charges_and_draws_nothing(self, no_evaluation):
        # the merge costs 8 * 2 = 16; with 85 spent a cap of 100 leaves 15
        genomes, fitness, known, fn, noise, budget, params = self.step(
            2, 0.5, max_total_eval=100, spent=85)
        before = fitness.copy()
        rng = RngState(7)
        merged = merge_and_resample(genomes, fitness, np.arange(self.N_ELITES), fn, noise,
                                    rng, budget, params, known)
        assert merged is None
        assert (budget.total_eval, budget.total_unchanged) == (85, 0)
        assert np.array_equal(fitness, before)
        assert rng.bit_generator.state == RngState(7).bit_generator.state


class TestMergeInRun:
    def test_merge_keeps_only_the_elites_copied_from_measured_rows(self, monkeypatch):
        # the rows a merge keeps (fitness untouched) are the elites that the
        # last GA call copied from its input: the main generation's n_elites
        # at a zero-generation step, the rows with source >= 0 of the pseudo
        # generations otherwise; every other row is rescored, and
        # total_unchanged grows per step by the main generation's n_elites
        # and the kept rows, rs each
        n, n_elites, rs = 20, 2, 2
        params = small_params(rs_merge=rs, max_total_eval=3000)
        real_evolve, real_merge = engine.evolve_pseudo, engine.merge_and_resample
        pseudo, steps = [], []

        def evolve_pseudo(*args):
            out = real_evolve(*args)
            pseudo.append((args[-1], np.flatnonzero(out[2] >= 0)))
            return out

        def merge(genomes, fitness, source, fn, noise, rng, budget, params, known=None):
            before, evals = fitness.copy(), budget.total_eval
            out = real_merge(genomes, fitness, source, fn, noise, rng, budget, params, known)
            if out is not None:
                generations, kept = pseudo.pop() if pseudo else (0, None)
                # only a zero-generation step re-noises known true fitness
                assert (known is None) == (generations > 0)
                steps.append((generations, kept, np.flatnonzero(out == before),
                              (budget.total_eval - evals) // rs, budget.total_unchanged))
            return out

        monkeypatch.setattr(engine, "evolve_pseudo", evolve_pseudo)
        monkeypatch.setattr(engine, "merge_and_resample", merge)
        res = run(make_function("sphere"), NoiseModel(0.0, 0.5), params, RngState(1))
        assert len(steps) == len(res.trace) > 20

        unchanged = 0
        for generations, kept, untouched, rescored, total_unchanged in steps:
            if generations == 0:
                assert rescored == n - n_elites
                kept = np.arange(n_elites)
            assert np.array_equal(untouched, kept)
            assert rescored == n - len(kept)
            assert total_unchanged - unchanged == (n_elites + len(kept)) * rs
            unchanged = total_unchanged
        assert res.budget.total_unchanged == unchanged
        # both kinds of step, and pseudo generations that bred an elite
        gens = [g for g, *_ in steps]
        assert 0 in gens and max(gens) >= 1
        assert any(g > 0 and len(kept) < n_elites for g, kept, *_ in steps)


class TestCoordinateSweep:
    def sweep(self, fn, x, ga=GaParams(), noise=NoiseModel(0.0, 0.0), rs=1):
        budget = Budget(pop_size=ga.pop_size, total_it=0, rs=rs)
        params = DpseaParams(ga=ga, rs_merge=rs)
        fx = evaluate_many(fn, np.array([x]))[0]
        xs, ys = _coordinate_sweep(fn, np.array(x), fx, noise, params, RngState(1), budget)
        return xs, ys, budget

    def test_sphere_in_one_sweep_from_the_bounds(self):
        # each sphere parabola is exact: one sweep lands on the optimum,
        # probing inward at the bounds, 3 evaluations per coordinate
        fn = make_function("sphere")
        xs, ys, budget = self.sweep(fn, [5.12, -5.12, 3.0, -0.7, 0.05])
        assert ys.min() < 1e-20
        assert np.allclose(xs[np.argmin(ys)], 0.0, atol=1e-10)
        assert len(ys) == 15 and budget.total_eval == 15
        assert np.array_equal(ys, evaluate_many(fn, xs))
        assert xs.min() >= fn.lower_bound and xs.max() <= fn.upper_bound

    def test_rosenbrock_tail_follows_its_neighbour(self):
        # x_D at the bound, where the design's diagonal model puts it on
        # rosenbrock: 100 (x_D - x_{D-1}^2)^2 is a parabola in x_D, so the
        # sweep moves x_D to x_{D-1}^2
        fn = make_function("rosenbrock", dimension=5)
        start = [0.1, -0.2, 0.3, 0.4, 50.0]
        xs, ys, _ = self.sweep(fn, start)
        best = xs[np.argmin(ys)]
        assert evaluate_many(fn, np.array([start]))[0] > 2e5
        assert ys.min() < 30.0  # the first four coordinates' terms, about 24 at the start
        assert best[-1] == pytest.approx(best[-2] ** 2, abs=1e-9)

    def test_no_step_no_probe(self):
        fn = make_function("sphere")
        xs, ys, budget = self.sweep(fn, [1.0] * 5, ga=GaParams(sigma_m=0.0))
        assert xs.shape == (0, 5) and ys.shape == (0,)
        assert budget.total_eval == 0

    def test_probes_stay_in_a_domain_narrower_than_the_step(self):
        # sigma_m = 100 is a step of 10 on sphere's +-5.12: the probes use a
        # quarter of the domain instead and never leave it
        fn = make_function("sphere")
        xs, ys, _ = self.sweep(fn, [5.12, 0.0, -3.0, 1.0, -5.12], ga=GaParams(sigma_m=100.0))
        assert len(ys) >= 10
        assert xs.min() >= fn.lower_bound and xs.max() <= fn.upper_bound

    def test_design_returns_every_charged_point(self):
        fn = make_function("rosenbrock", dimension=5)
        for rs in (1, 2):
            params = DpseaParams(rs_merge=rs, max_total_eval=5000)
            budget = Budget(pop_size=100, total_it=0, rs=rs)
            xs, ys = initial_design(fn, NoiseModel(0.0, 0.3), params, RngState(3), budget)
            assert budget.total_eval == rs * len(ys)
            assert 100 + 480 + 1 + 10 <= len(ys) <= 100 + 480 + 1 + 15


class TestRun:
    def test_deterministic_given_seed(self):
        fn = make_function("sphere")
        params = small_params(max_total_eval=3000)
        noise = NoiseModel(0.0, 0.3)
        a = run(fn, noise, params, RngState(5))
        b = run(fn, noise, params, RngState(5))
        assert a.best_fitness == b.best_fitness
        assert np.array_equal(a.best_genome, b.best_genome)
        assert a.budget.total_eval == b.budget.total_eval
        assert len(a.trace) == len(b.trace)

    def test_budget_cap_never_exceeded(self):
        fn = make_function("sphere")
        noise = NoiseModel(0.0, 0.5)
        for cap in (2000, 3001, 5000):
            params = small_params(max_total_eval=cap)
            res = run(fn, noise, params, RngState(1))
            assert res.budget.total_eval <= cap

    def test_initial_design_charged_only_when_it_fits(self):
        fn = make_function("sphere")
        # 100 + 40 * 12 + 1 and a 3-evaluation step per coordinate (every
        # sphere parabola is convex): 596 evaluations fit in 600, not in 150;
        # neither cap leaves room for a 90-evaluation generation after them
        for cap, init in ((600, 596), (150, 100)):
            params = DpseaParams(max_total_eval=cap)
            res = run(fn, NoiseModel(0.0, 0.0), params, RngState(1))
            assert res.trace == []
            assert res.budget.total_eval == init
            budget = Budget(pop_size=100, total_it=0, rs=1)
            xs, ys = initial_design(
                fn, NoiseModel(0.0, 0.0), params, RngState(1), budget
            )
            assert xs.shape == (init, 5) and ys.shape == (init,)

    def test_budget_below_first_population_rejected(self):
        fn = make_function("sphere")
        for rs in (1, 3):
            with pytest.raises(ValueError):
                small_params(max_total_eval=20 * rs - 1, rs_merge=rs)
            # a cap that only pays for the first population charges just that
            params = small_params(max_total_eval=20 * rs, rs_merge=rs)
            res = run(fn, NoiseModel(0.0, 0.0), params, RngState(1))
            assert res.budget.total_eval == 20 * rs
            assert res.trace == []

    def test_best_fitness_is_true_fitness_of_best_genome(self):
        from dpsea.benchmarks import evaluate

        fn = make_function("sphere")
        params = small_params(max_total_eval=4000)
        res = run(fn, NoiseModel(0.0, 0.4), params, RngState(2))
        assert res.best_fitness == pytest.approx(evaluate(fn, res.best_genome))

    def test_trace_monotone_and_progressing(self):
        fn = make_function("sphere")
        params = small_params(max_total_eval=6000)
        res = run(fn, NoiseModel(0.0, 0.2), params, RngState(3))
        assert len(res.trace) >= 2
        bests = [t.best_fitness for t in res.trace]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bests, bests[1:]))
        evals = [t.total_eval for t in res.trace]
        assert all(e2 >= e1 for e1, e2 in zip(evals, evals[1:]))
        # one pseudo-population per switching step, always evolved
        assert {(t.n_clusters, t.n_eligible) for t in res.trace} == {(1, 1)}

    def test_noiseless_sphere_improves_substantially(self):
        fn = make_function("sphere")
        params = DpseaParams(max_total_eval=20_000)
        res = run(fn, NoiseModel(0.0, 0.0), params, RngState(4))
        assert res.best_fitness < 1.0

        # 50-D griewank over +-600: an absolute mutation std of 0.1 alone
        # drifts about 0.1 per generation and is still above 100 here; the
        # initial design's surrogate minimizer lands in the optimum's basin
        fn = make_function("griewank")
        params = DpseaParams(max_total_eval=10_000)
        res = run(fn, NoiseModel(0.0, 0.0), params, RngState(4))
        assert res.best_fitness < 1e-3

    def test_noise_at_the_sigma_bound_stays_finite(self):
        # 50-D griewank, with the initial design's 4180-row fit: no value of
        # the run overflows at the largest sigma NoiseModel accepts
        fn = make_function("griewank")
        for rs in (1, 5):
            params = DpseaParams(rs_merge=rs, max_total_eval=6000 * rs)
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                res = run(fn, NoiseModel(0.0, SIGMA_MAX), params, RngState(1))
            assert len(res.trace) > 0 and np.isfinite(res.best_fitness)

    def test_noise_at_the_mean_bound_stays_finite(self):
        # mu 1e308 overflowed the surrogate's coefficients; at the bound,
        # with and without spread, no value of the run overflows
        fn = make_function("sphere")
        for mu, sigma in ((SIGMA_MAX, 0.0), (-SIGMA_MAX, SIGMA_MAX)):
            for rs in (1, 5):
                params = DpseaParams(rs_merge=rs, max_total_eval=6000 * rs)
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    res = run(fn, NoiseModel(mu, sigma), params, RngState(1))
                assert len(res.trace) > 0 and np.isfinite(res.best_fitness)

    def test_rs_merge_scales_consumption(self):
        fn = make_function("sphere")
        p1 = small_params(max_total_eval=4000, rs_merge=1)
        p5 = small_params(max_total_eval=4000, rs_merge=5)
        r1 = run(fn, NoiseModel(0.0, 0.5), p1, RngState(6))
        r5 = run(fn, NoiseModel(0.0, 0.5), p5, RngState(6))
        assert len(r5.trace) < len(r1.trace)
        assert r5.budget.total_eval <= 4000
