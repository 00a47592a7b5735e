import pickle

import numpy as np
import pytest

from dpsea import baselines, engine
from dpsea.benchmarks import FUNCTION_IDS, NoiseModel, evaluate, evaluate_many, make_function
from dpsea.stochastics import (
    Budget,
    CycleRecord,
    RngState,
    RunResult,
    resample_many,
    resampled_fitness,
)


def reference_resample_many(fn, xs, rs, noise, rng):
    """True fitness plus the ``mean`` of ``rs`` draws per row, which
    ``resample_many`` must match bit for bit."""
    return evaluate_many(fn, xs) + rng.normal(noise.mu, noise.sigma, (len(xs), rs)).mean(axis=1)


class TestRngState:
    def test_same_seed_same_stream(self):
        a = RngState(123)
        b = RngState(123)
        assert np.array_equal(a.uniform(size=10), b.uniform(size=10))
        assert np.array_equal(a.normal(size=10), b.normal(size=10))
        assert np.array_equal(a.integers(0, 100, 10), b.integers(0, 100, 10))

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            RngState(1).uniform(size=10), RngState(2).uniform(size=10)
        )

    def test_seed_masked_to_64_bits(self):
        assert RngState(1 << 70).seed == 0

    @pytest.mark.parametrize("seed", [0, -1, 2**70])
    def test_is_the_generator_of_pcg64_on_the_masked_seed(self, seed):
        rng = RngState(seed)
        gen = np.random.Generator(np.random.PCG64(seed & (2**64 - 1)))
        assert isinstance(rng, np.random.Generator)
        for draw in (lambda g: g.random(5), lambda g: g.uniform(-2.0, 3.0, 4),
                     lambda g: g.integers(0, 100, 6), lambda g: g.normal(1.0, 2.0, 3)):
            assert np.array_equal(draw(rng), draw(gen))
        assert rng.bit_generator.state == gen.bit_generator.state

    def test_pickle_round_trip_keeps_seed_and_position(self):
        rng = RngState(-7)
        rng.normal(size=5)
        back = pickle.loads(pickle.dumps(rng))
        assert type(back) is RngState
        assert back.seed == rng.seed == 2**64 - 7
        assert repr(back) == f"RngState(seed={2**64 - 7})"
        assert np.array_equal(back.random(4), rng.random(4))
        assert np.array_equal(back.integers(0, 9, 4), rng.integers(0, 9, 4))


class TestBudget:
    def test_charge_and_skip_accumulate(self):
        b = Budget(pop_size=10, total_it=5, rs=2)
        b.charge(20)
        b.charge(5)
        b.skip(4)
        assert b.total_eval == 25
        assert b.total_unchanged == 4

    def test_offer_keeps_the_least_and_the_earlier_row_on_a_tie(self):
        b = Budget(pop_size=3, total_it=1, rs=1)
        assert b.best_genome is None and b.best_fitness == np.inf
        xs = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        b.offer(xs, np.array([3.0, 1.0, 1.0]))
        assert b.best_fitness == 1.0 and b.best_genome.tolist() == [2.0, 3.0]
        xs[1] = 9.0  # the best is a copy
        b.offer(xs[::-1], np.array([2.0, 1.0, 5.0]))  # a tie with the best so far
        assert b.best_fitness == 1.0 and b.best_genome.tolist() == [2.0, 3.0]
        b.offer(xs[:0], np.empty(0))
        assert b.best_fitness == 1.0 and b.best_genome.tolist() == [2.0, 3.0]
        b.offer(xs[2:], np.array([0.5]))
        assert b.best_fitness == 0.5 and b.best_genome.tolist() == [4.0, 5.0]

    def test_end_cycle_numbers_its_rows_and_passes_counts_through(self):
        b = Budget(pop_size=2, total_it=0, rs=1)
        b.end_cycle()
        b.charge(7)
        b.offer(np.zeros((1, 2)), np.array([4.0]))
        b.end_cycle(n_clusters=3, n_eligible=2)
        assert b.trace == [CycleRecord(0, 0, np.inf), CycleRecord(1, 7, 4.0, 3, 2)]

    def test_equality_ignores_the_best_and_the_trace(self):
        a, b = Budget(4, 2, 1), Budget(4, 2, 1)
        a.offer(np.zeros((1, 2)), np.array([1.0]))
        a.end_cycle()
        assert a == b and repr(a) == repr(b)
        b.charge(1)
        assert a != b

    def test_run_result_trace_is_the_budgets_trace(self):
        b = Budget(pop_size=2, total_it=0, rs=1)
        b.offer(np.ones((1, 3)), np.array([2.0]))
        b.end_cycle()
        res = RunResult.from_budget(b)
        assert res.trace is b.trace and res.budget is b
        assert res.best_fitness == 2.0 and res.best_genome is b.best_genome

    def test_run_results_compare_and_hash_by_identity(self):
        fn = make_function("sphere")
        a, b = (engine.run(fn, NoiseModel(0.0, 0.5), engine.DpseaParams(max_total_eval=600),
                           RngState(3)) for _ in range(2))
        assert a.best_fitness == b.best_fitness  # one seed, one run
        assert a == a and hash(a) == hash(a)
        assert a != b and not (a == b)
        assert len({a, b}) == 2
        # the budget keeps its accounting-only equality
        assert a.budget == b.budget and a.budget is not b.budget


class TestResampledFitness:
    def test_sigma_zero_is_exact_and_charges_rs(self):
        fn = make_function("sphere")
        x = np.full(5, 2.0)
        budget = Budget(pop_size=1, total_it=1, rs=7)
        got = resampled_fitness(fn, x, 7, NoiseModel(0.0, 0.0), RngState(0), budget)
        assert got == evaluate(fn, x)
        assert budget.total_eval == 7

    def test_invalid_rs(self):
        fn = make_function("sphere")
        budget = Budget(pop_size=1, total_it=1, rs=1)
        with pytest.raises(ValueError):
            resampled_fitness(fn, np.zeros(5), 0, NoiseModel(), RngState(0), budget)

    def test_variance_scales_inverse_rs(self):
        # var of the rs-average of N(0, sigma^2) noise is sigma^2 / rs
        fn = make_function("sphere")
        x = np.zeros(5)
        sigma = 1.0
        noise = NoiseModel(0.0, sigma)
        rng = RngState(17)
        trials = 1000
        for rs in (1, 4, 16):
            budget = Budget(pop_size=1, total_it=1, rs=rs)
            draws = np.array(
                [
                    resampled_fitness(fn, x, rs, noise, rng, budget)
                    for _ in range(trials)
                ]
            )
            expected = sigma**2 / rs
            assert abs(draws.var(ddof=1) - expected) < 0.3 * expected
            assert budget.total_eval == trials * rs

    def test_mu_offset_applied(self):
        fn = make_function("sphere")
        x = np.zeros(5)
        budget = Budget(pop_size=1, total_it=1, rs=1)
        got = resampled_fitness(fn, x, 1, NoiseModel(5.0, 0.0), RngState(0), budget)
        assert got == 5.0

    def test_one_row_of_resample_many_bit_for_bit(self):
        for name in FUNCTION_IDS:
            fn = make_function(name, dimension=4)
            x = RngState(3).uniform(fn.lower_bound, fn.upper_bound, 4)
            for rs in (1, 3, 10):
                noise = NoiseModel(0.2, 0.7)
                a, b = Budget(1, 1, rs), Budget(1, 1, rs)
                one = resampled_fitness(fn, x, rs, noise, RngState(rs), a)
                many = resample_many(fn, x[None], rs, noise, RngState(rs), b)
                assert one == many[0] and type(one) is float
                assert a.total_eval == b.total_eval == rs


class TestResampleMany:
    def test_matches_scalar_path_at_sigma_zero(self):
        fn = make_function("sphere")
        xs = RngState(1).uniform(-100, 100, (8, 5))
        budget = Budget(pop_size=8, total_it=1, rs=3)
        batch = resample_many(fn, xs, 3, NoiseModel(0.0, 0.0), RngState(0), budget)
        single = [evaluate(fn, x) for x in xs]
        assert np.allclose(batch, single)
        assert budget.total_eval == 24

    @pytest.mark.parametrize("name", FUNCTION_IDS)
    @pytest.mark.parametrize("rs", [1, 3, 5])
    @pytest.mark.parametrize("mu, sigma", [(0.0, 0.0), (0.25, 0.0), (0.25, 0.7)])
    def test_bit_for_bit_the_mean_of_the_draws(self, name, rs, mu, sigma):
        fn = make_function(name, dimension=5)
        noise = NoiseModel(mu, sigma)
        for n in (1, 90):
            xs = RngState(n).uniform(fn.lower_bound, fn.upper_bound, (n, 5))
            got = resample_many(fn, xs, rs, noise, RngState(4), Budget(n, 1, rs))
            want = reference_resample_many(fn, xs, rs, noise, RngState(4))
            assert np.array_equal(got, want), n

    def test_batch_noise_statistics(self):
        fn = make_function("sphere")
        xs = np.zeros((2000, 5))
        budget = Budget(pop_size=2000, total_it=1, rs=4)
        vals = resample_many(fn, xs, 4, NoiseModel(0.0, 1.0), RngState(9), budget)
        assert abs(vals.mean()) < 0.05
        assert abs(vals.var(ddof=1) - 0.25) < 0.05

    @pytest.mark.parametrize("rs", [1, 3])
    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_known_true_fitness_gives_the_same_bits_and_draws(self, rs, sigma,
                                                             monkeypatch):
        # true fitness handed back through true_out and passed in as known:
        # the same charge, draws and bits, and no evaluation or offer
        import dpsea.benchmarks as bm

        fn = make_function("griewank", dimension=5)
        noise = NoiseModel(0.25, sigma)
        xs = RngState(2).uniform(fn.lower_bound, fn.upper_bound, (90, 5))
        first, want_rng = Budget(90, 1, rs), RngState(4)
        true = np.empty(90)
        want = resample_many(fn, xs, rs, noise, want_rng, first, true_out=true)
        assert np.array_equal(true, evaluate_many(fn, xs))

        def no_evaluation(fn, xs):
            raise AssertionError("known true fitness evaluated again")

        monkeypatch.setattr(bm, "evaluate_many", no_evaluation)
        again, got_rng = Budget(90, 1, rs), RngState(4)
        got = resample_many(fn, xs, rs, noise, got_rng, again, known=true)
        assert np.array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert again.total_eval == first.total_eval == 90 * rs
        assert again.best_genome is None and again.best_fitness == np.inf

    def test_known_true_fitness_must_cover_every_row(self):
        fn = make_function("sphere")
        budget = Budget(3, 1, 1)
        with pytest.raises(ValueError, match="2 values for 3 rows"):
            resample_many(fn, np.zeros((3, 5)), 1, NoiseModel(0.0, 1.0), RngState(0),
                          budget, known=np.zeros(2))
        assert budget.total_eval == 0

    def test_true_fitness_offered_to_the_budgets_tracker(self):
        fn = make_function("sphere", dimension=2)
        budget = Budget(pop_size=3, total_it=1, rs=2)
        best = budget
        xs = np.array([[3.0, 0.0], [1.0, 1.0], [-1.0, 1.0]])
        resample_many(fn, xs, 2, NoiseModel(0.0, 5.0), RngState(0), budget)
        # the noiseless value is tracked; a tie keeps the earlier row
        assert best.best_fitness == 2.0
        assert best.best_genome.tolist() == [1.0, 1.0]
        resample_many(fn, xs[:0], 2, NoiseModel(0.0, 5.0), RngState(0), budget)
        assert best.best_fitness == 2.0


@pytest.mark.parametrize("algo", ["dpsea", "cga", "de", "pso"])
def test_one_true_evaluation_per_charged_point(algo, monkeypatch):
    # every row that reaches the objective is charged rs times, and nothing
    # else (best-so-far tracking included) evaluates the objective again; a
    # DPSEA step without surrogate generations re-noises its 90 offspring
    # from the true fitness the main generation computed, also charged rs
    # times each
    import dpsea.benchmarks as bm

    rows, renoised, zero_generation_merges = [], [], []
    evaluate_many = bm.evaluate_many
    resample, merge = engine.resample_many, engine.merge_and_resample

    def counting(fn, xs):
        rows.append(len(xs))
        return evaluate_many(fn, xs)

    def renoising(*args, known=None, **kwargs):
        if known is not None:
            renoised.append(len(known))
        return resample(*args, known=known, **kwargs)

    def merging(*args):
        out = merge(*args)
        if out is not None and args[-1] is not None:
            zero_generation_merges.append(1)
        return out

    monkeypatch.setattr(bm, "evaluate_many", counting)
    monkeypatch.setattr(engine, "resample_many", renoising)
    monkeypatch.setattr(engine, "merge_and_resample", merging)
    fn = make_function("griewank", dimension=10)
    noise = NoiseModel(0.0, 0.5)
    rs = 3
    runners = {
        "dpsea": lambda: engine.run(
            fn, noise, engine.DpseaParams(rs_merge=rs, max_total_eval=6000), RngState(1)),
        "cga": lambda: baselines.run_cga(
            fn, noise, baselines.CgaConfig(rs=rs, total_eval=3000), RngState(1)),
        "de": lambda: baselines.run_de(
            fn, noise, baselines.DeConfig(rs=rs, total_eval=3000), RngState(1)),
        "pso": lambda: baselines.run_pso(
            fn, noise, baselines.PsoConfig(rs=rs, total_eval=3000), RngState(1)),
    }
    res = runners[algo]()
    assert res.budget.total_eval > 0
    assert (sum(rows) + sum(renoised)) * rs == res.budget.total_eval
    assert sum(renoised) == 90 * len(zero_generation_merges)
    assert (len(zero_generation_merges) > 0) == (algo == "dpsea")


# 5-D sphere runs for each runner; the initial design needs (100 + 480 + 1 +
# 15) * rs evaluations, so DPSEA at 580 * rs (2.9k at rs 5) skips it
RECORDED_RUNS = {
    "dpsea": lambda fn, noise, rs, rng: engine.run(
        fn, noise, engine.DpseaParams(rs_merge=rs, max_total_eval=1500 * rs), rng),
    "dpsea-skipdesign": lambda fn, noise, rs, rng: engine.run(
        fn, noise, engine.DpseaParams(rs_merge=rs, max_total_eval=580 * rs), rng),
    "cga": lambda fn, noise, rs, rng: baselines.run_cga(
        fn, noise, baselines.CgaConfig(rs=rs, total_eval=1000 * rs), rng),
    "de": lambda fn, noise, rs, rng: baselines.run_de(
        fn, noise, baselines.DeConfig(rs=rs, total_eval=1000 * rs), rng),
    "pso": lambda fn, noise, rs, rng: baselines.run_pso(
        fn, noise, baselines.PsoConfig(rs=rs, total_eval=1000 * rs), rng),
}


@pytest.mark.parametrize("rs", [1, 5])
@pytest.mark.parametrize("sigma", [0.0, 0.5])
@pytest.mark.parametrize("algo", list(RECORDED_RUNS))
def test_the_trace_ends_at_the_budgets_record(algo, sigma, rs):
    res = RECORDED_RUNS[algo](make_function("sphere"), NoiseModel(0.0, sigma), rs,
                              RngState(7))
    assert [r.cycle for r in res.trace] == list(range(len(res.trace)))
    assert res.trace[-1].total_eval == res.budget.total_eval
    assert res.trace[-1].best_fitness == res.best_fitness
    if not algo.startswith("dpsea"):
        assert len(res.trace) == res.budget.total_it
