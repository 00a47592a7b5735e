import copy
import math
from dataclasses import replace

import numpy as np
import pytest

from dpsea.benchmarks import NoiseModel, evaluate_many, make_function
from dpsea.engine import (
    DpseaParams,
    _coordinate_sweep,
    adaptive_mutation_rate,
    evolve_pseudo,
    fit_surrogate,
    initial_design,
    merge_and_resample,
    run,
    self_organize,
    surrogate_generations,
)
from dpsea.ga import GaParams, Population
from dpsea.regression import ModelKind, predict_many
from dpsea.stochastics import Budget, RngState


def small_params(**kwargs):
    ga = kwargs.pop("ga", GaParams(pop_size=20, n_elites=2))
    return DpseaParams(ga=ga, **kwargs)


def make_pop(genomes, fits=None, sampled=True):
    genomes = np.array(genomes, float)
    if fits is None:
        fits = np.arange(len(genomes), dtype=float)
    return Population.new(genomes, np.array(fits, float), sampled=sampled)


def member_rows(clusters):
    return [int(i) for c in clusters for i in c.rows]


class TestSelfOrganize:
    def test_disjoint_cover_randomized(self):
        fn = make_function("sphere", dimension=3)
        rng = np.random.default_rng(0)
        params = small_params()
        for _ in range(1000):
            n = int(rng.integers(1, 31))
            genomes = rng.uniform(-100, 100, (n, 3))
            pop = make_pop(genomes, rng.normal(size=n))
            clusters = self_organize(pop, fn, params)
            seen = member_rows(clusters)
            assert len(seen) == n
            assert len(set(seen)) == n
            for c in clusters:
                assert np.array_equal(c.members.genomes, genomes[c.rows])

    def test_radius_one_gives_single_cluster(self):
        fn = make_function("sphere", dimension=3)
        params = small_params(radius_fraction=1.0)
        rng = np.random.default_rng(1)
        pop = make_pop(rng.uniform(-100, 100, (20, 3)))
        clusters = self_organize(pop, fn, params)
        assert len(clusters) == 1
        assert len(clusters[0].members) == 20

    def test_two_blob_oracle_partition(self):
        # two tight blobs in opposite corners: greedy seeding must recover
        # exactly the blob membership
        fn = make_function("sphere", dimension=2)
        params = small_params(
            ga=GaParams(pop_size=10, n_elites=2), radius_fraction=0.1
        )
        rng = np.random.default_rng(2)
        blob_a = np.full((5, 2), -80.0) + rng.normal(0, 0.5, (5, 2))
        blob_b = np.full((5, 2), 80.0) + rng.normal(0, 0.5, (5, 2))
        genomes = np.vstack([blob_a, blob_b])
        fits = [3.0, 4.0, 5.0, 6.0, 7.0, 0.0, 1.0, 2.0, 8.0, 9.0]
        pop = make_pop(genomes, fits)
        clusters = self_organize(pop, fn, params)
        assert len(clusters) == 2
        # seed of the first cluster is the global best (index 5, blob b)
        assert clusters[0].seed_index == 5
        assert set(clusters[0].rows.tolist()) == set(range(5, 10))
        assert set(clusters[1].rows.tolist()) == set(range(5))

    def test_max_clusters_cap_with_leftover_assignment(self):
        fn = make_function("sphere", dimension=1)
        params = small_params(
            ga=GaParams(pop_size=5, n_elites=1),
            max_clusters=2,
            radius_fraction=0.01,
        )
        # points at 0, 1, 50, 51, 100; radius = 0.01 * 200 = 2
        genomes = np.array([[0.0], [1.0], [50.0], [51.0], [100.0]])
        pop = make_pop(genomes, [0.0, 1.0, 2.0, 3.0, 4.0])
        clusters = self_organize(pop, fn, params)
        assert len(clusters) == 2
        sizes = sorted(len(c.members) for c in clusters)
        # 100 is a leftover and joins its nearest seed (50)
        assert sizes == [2, 3]

    def test_leftover_tie_goes_to_lower_seed_index(self):
        fn = make_function("sphere", dimension=1)
        params = small_params(
            ga=GaParams(pop_size=3, n_elites=1),
            max_clusters=2,
            radius_fraction=0.01,
            s_min=1,
        )
        # row 2 seeds the first cluster, row 0 the second; row 1 lies 10
        # from both seeds and joins row 0, the seed with the lower index
        pop = make_pop([[-10.0], [0.0], [10.0]], [1.0, 5.0, 0.0])
        clusters = self_organize(pop, fn, params)
        assert [c.seed_index for c in clusters] == [2, 0]
        assert [c.rows.tolist() for c in clusters] == [[2], [0, 1]]

    def test_archive_holds_only_sampled_members(self):
        fn = make_function("sphere", dimension=2)
        params = small_params(
            radius_fraction=1.0, ga=GaParams(pop_size=4, n_elites=1), s_min=2
        )
        pop = make_pop(np.zeros((4, 2)), [1.0, 2.0, 3.0, 4.0])
        pop.sampled[2] = False
        clusters = self_organize(pop, fn, params)
        xs, ys = clusters[0].archive
        assert xs.shape == (3, 2)
        assert ys.tolist() == [1.0, 2.0, 4.0]

    def test_sample_pool_assigned_to_nearest_seed(self):
        fn = make_function("sphere", dimension=1)
        params = small_params(
            ga=GaParams(pop_size=4, n_elites=1), radius_fraction=0.05, s_min=2
        )
        genomes = np.array([[-90.0], [-89.0], [90.0], [91.0]])
        pop = make_pop(genomes, [0.0, 1.0, 2.0, 3.0])
        xs = np.array([[-95.0], [85.0], [-80.0]])
        ys = np.array([10.0, 20.0, 30.0])
        clusters = self_organize(pop, fn, params, samples=(xs, ys))
        assert len(clusters) == 2
        left = next(c for c in clusters if genomes[c.seed_index, 0] < 0)
        right = next(c for c in clusters if genomes[c.seed_index, 0] > 0)
        assert sorted(left.archive[1].tolist()) == [10.0, 30.0]
        assert right.archive[1].tolist() == [20.0]

    def test_empty_population_rejected(self):
        fn = make_function("sphere", dimension=2)
        with pytest.raises(ValueError):
            self_organize(make_pop(np.empty((0, 2))), fn, small_params())

    def test_archives_nonempty_when_pool_holds_the_population(self):
        # run's pool always holds the population's genomes, and each seed is
        # its own nearest seed, so fit_surrogate never sees an empty archive
        rng = np.random.default_rng(5)
        for _ in range(300):
            d = int(rng.integers(1, 6))
            fn = make_function("sphere", dimension=d)
            n = int(rng.integers(1, 41))
            params = small_params(
                ga=GaParams(pop_size=n, n_elites=0), s_min=1,
                max_clusters=int(rng.integers(1, 12)),
                radius_fraction=float(rng.uniform(0.001, 1.0)),
            )
            pop = make_pop(rng.uniform(-100, 100, (n, d)), rng.normal(size=n))
            extra = rng.uniform(-100, 100, (int(rng.integers(0, 30)), d))
            xs = np.vstack([extra, pop.genomes])[rng.permutation(len(extra) + n)]
            samples = (xs, rng.normal(size=len(xs)))
            for c in self_organize(pop, fn, params, samples=samples):
                assert len(c.archive[1]) > 0


class TestEligibility:
    def test_top_half_and_min_size(self):
        # four far-apart blobs; the best one holds only 3 < s_min members
        fn = make_function("sphere", dimension=2)
        params = small_params(kappa=0.5, s_min=5)
        rng = np.random.default_rng(0)
        centers = [(-80.0, -80.0), (80.0, -80.0), (-80.0, 80.0), (80.0, 80.0)]
        sizes, bests = [6, 6, 6, 3], [0.0, 1.0, 2.0, -5.0]
        genomes = np.vstack([
            np.array(c) + rng.uniform(-1, 1, (size, 2))
            for c, size in zip(centers, sizes)
        ])
        fits = np.concatenate([b + np.arange(size, dtype=float)
                               for b, size in zip(bests, sizes)])
        clusters = self_organize(make_pop(genomes, fits), fn, params)
        # best-first: the 3-member blob, then the others by best fitness;
        # the top ceil(0.5 * 4) = 2 hold the only eligible one
        assert [len(c.members) for c in clusters] == [3, 6, 6, 6]
        assert [c.members.fitness.min() for c in clusters] == [-5.0, 0.0, 1.0, 2.0]
        assert [c.eligible for c in clusters] == [False, True, False, False]

    def test_kappa_one_makes_all_large_clusters_eligible(self):
        fn = make_function("sphere", dimension=2)
        params = small_params(kappa=1.0, s_min=2)
        rng = np.random.default_rng(0)
        genomes = np.vstack([np.array(c) + rng.uniform(-1, 1, (3, 2))
                             for c in ((-80.0, 0.0), (0.0, 0.0), (80.0, 0.0))])
        clusters = self_organize(make_pop(genomes), fn, params)
        assert [len(c.members) for c in clusters] == [3, 3, 3]
        assert all(c.eligible for c in clusters)

    def test_best_first_and_prefix_rule_randomized(self):
        # tied fitness, capped max_clusters (so leftovers join a seed they
        # were not captured by), with and without a sample pool
        rng = np.random.default_rng(11)
        ties = leftovers = 0
        for trial in range(1500):
            d = int(rng.integers(1, 4))
            fn = make_function("sphere", dimension=d)
            n = int(rng.integers(1, 31))
            params = small_params(
                ga=GaParams(pop_size=30, n_elites=1),
                max_clusters=int(rng.integers(1, 8)),
                radius_fraction=float(rng.uniform(0.01, 0.4)),
                kappa=float(rng.uniform(0.05, 1.0)),
                s_min=int(rng.integers(1, 6)),
            )
            genomes = rng.uniform(-100, 100, (n, d))
            fits = rng.integers(0, 6, n).astype(float)  # many ties
            samples = None
            if trial % 2:
                samples = (np.vstack([genomes, rng.uniform(-100, 100, (5, d))]),
                           rng.normal(size=n + 5))
            clusters = self_organize(make_pop(genomes, fits), fn, params,
                                     samples=samples)
            ties += len(set(fits.tolist())) < n
            radius = params.radius_fraction * math.sqrt(d) * 200.0
            keys = []
            for c in clusters:
                seed_key = (fits[c.seed_index], c.seed_index)
                assert c.seed_index in c.rows
                assert all((fits[r], r) >= seed_key for r in c.rows.tolist())
                far = np.linalg.norm(genomes[c.rows] - genomes[c.seed_index], axis=1)
                leftovers += bool(np.any(far > radius))
                keys.append(seed_key)
            assert keys == sorted(keys) and len(set(keys)) == len(keys)

            top = math.ceil(params.kappa * len(clusters))
            want = [k < top and len(c.members) >= params.s_min
                    for k, c in enumerate(clusters)]
            assert [c.eligible for c in clusters] == want
            # the same clusters ranked by best fitness, ties to the lower
            # seed index, give the same top set
            ranking = sorted(range(len(clusters)), key=lambda k: (
                clusters[k].members.fitness.min(), clusters[k].seed_index))
            assert sorted(ranking[:top]) == list(range(top))
        assert ties > 1000 and leftovers > 100


class TestAdaptiveMutationRate:
    def test_hand_values(self):
        params = small_params(s_min=5)  # ga.p_m = 0.3
        # best member of a cluster of size 5: 0.3 * 0.5 * 1 = 0.15
        assert adaptive_mutation_rate(0.0, 5, params) == pytest.approx(0.15)
        # worst member: 0.3 * 1.5 * 1 = 0.45
        assert adaptive_mutation_rate(1.0, 5, params) == pytest.approx(0.45)
        # size 20: sqrt(5/20) = 0.5 -> 0.3 * 1.5 * 0.5 = 0.225
        assert adaptive_mutation_rate(1.0, 20, params) == pytest.approx(0.225)

    def test_clamped(self):
        params = small_params(s_min=5)
        assert adaptive_mutation_rate(0.0, 500, params) == 0.05
        big = DpseaParams(ga=GaParams(pop_size=20, n_elites=2, p_m=1.0), s_min=5)
        assert adaptive_mutation_rate(1.0, 5, big) == 1.0

    def test_validation(self):
        params = small_params()
        with pytest.raises(ValueError):
            adaptive_mutation_rate(1.5, 5, params)
        with pytest.raises(ValueError):
            adaptive_mutation_rate(0.5, 0, params)


class TestEvolvePseudo:
    def _eligible_cluster(self, fn, params, n=8):
        rng = np.random.default_rng(3)
        genomes = rng.uniform(-2, 2, (n, fn.dimension))
        fits = np.sum(genomes**2, axis=1)
        pop = make_pop(genomes, fits)
        clusters = self_organize(pop, fn, small_params(radius_fraction=1.0))
        c = clusters[0]
        c.eligible = True
        return fit_surrogate(c, fn, params)

    def test_requires_eligibility(self):
        fn = make_function("sphere", dimension=2)
        c = self._eligible_cluster(fn, small_params())
        c.eligible = False
        with pytest.raises(ValueError):
            evolve_pseudo(c, fn, small_params(), RngState(0))
        # an eligible cluster whose model was never fitted is rejected too
        c.eligible, c.model = True, None
        with pytest.raises(ValueError):
            evolve_pseudo(c, fn, small_params(), RngState(0))

    def test_zero_true_evaluations(self, monkeypatch):
        fn = make_function("sphere", dimension=2)
        params = small_params()
        c = self._eligible_cluster(fn, params)

        def boom(*args, **kwargs):
            raise AssertionError("pseudo evolution must not touch true fitness")

        import dpsea.benchmarks as bm

        monkeypatch.setattr(bm, "evaluate", boom)
        monkeypatch.setattr(bm, "evaluate_many", boom)
        evolve_pseudo(c, fn, params, RngState(1))

    def test_offspring_scored_by_model(self):
        fn = make_function("sphere", dimension=2)
        params = small_params()
        c = self._eligible_cluster(fn, params)
        evolve_pseudo(c, fn, params, RngState(1))
        from dpsea.regression import predict

        m = c.members
        for i in np.flatnonzero(~m.unchanged):
            assert m.fitness[i] == pytest.approx(predict(c.model, m.genomes[i]))
            assert not m.sampled[i]

    def test_model_fit_cached_between_generations(self, monkeypatch):
        fn = make_function("sphere", dimension=2)
        params = small_params()
        c = self._eligible_cluster(fn, params)
        first = c.model

        def boom(*args, **kwargs):
            raise AssertionError("evolve_pseudo must not refit the model")

        import dpsea.regression as reg

        monkeypatch.setattr(reg, "fit", boom)
        evolve_pseudo(c, fn, params, RngState(1))
        evolve_pseudo(c, fn, params, RngState(2))
        assert c.model is first

    def test_quadratic_model_with_ample_archive(self):
        fn = make_function("sphere", dimension=2)
        params = small_params()
        c = self._eligible_cluster(fn, params, n=10)  # 10 >= 2*2 + 2
        evolve_pseudo(c, fn, params, RngState(1))
        assert c.model.kind is ModelKind.DIAG_QUADRATIC

    def test_singleton_cluster_evolves(self):
        fn = make_function("sphere", dimension=2)
        params = small_params(s_min=1)
        pop = make_pop(np.array([[1.0, 1.0]]), [2.0])
        clusters = self_organize(pop, fn, small_params(radius_fraction=1.0))
        c = clusters[0]
        c.eligible = True
        evolve_pseudo(fit_surrogate(c, fn, params), fn, params, RngState(0))
        assert len(c.members) == 1


def per_row_generation(genomes, fitness, params, rng, bounds, score, rates):
    """The GA step with one mutation rate per row: each child of a pair
    takes the rate of the parent in its slot. Same draws, in the same order,
    as ``ga.evolve_generation``."""
    n = len(fitness)
    order = np.argsort(fitness, kind="stable")
    elites = order[: params.n_elites]
    n_off = n - params.n_elites
    n_pairs = (n_off + 1) // 2
    draws = rng.integers(0, n, (n_pairs, 2, 2))
    a, b = draws[..., 0], draws[..., 1]
    a_wins = (fitness[a] < fitness[b]) | ((fitness[a] == fitness[b]) & (a < b))
    parents = np.where(a_wins, a, b)
    u_cross = rng.uniform(size=n_pairs)
    alphas = rng.uniform(size=n_pairs)
    pa = genomes[parents[:, 0]]
    pb = genomes[parents[:, 1]]
    al = alphas[:, None]
    crossed = u_cross[:, None] < params.p_c
    c1 = np.where(crossed, al * pa + (1 - al) * pb, pa)
    c2 = np.where(crossed, (1 - al) * pa + al * pb, pb)
    children = np.stack([c1, c2], axis=1).reshape(2 * n_pairs, -1)[:n_off]
    child_rates = rates[parents.reshape(-1)[:n_off]]
    d = genomes.shape[1]
    mask = rng.uniform(size=(n_off, d)) < child_rates[:, None]
    steps = rng.normal(0.0, math.sqrt(params.sigma_m), mask.sum())
    children[mask] += steps
    children = np.clip(children, bounds[0], bounds[1])
    return (
        np.concatenate([genomes[elites], children]),
        np.concatenate([fitness[elites], score(children)]),
        elites,
    )


def per_generation_evolve_pseudo(cluster, fn, params, rng):
    """``evolve_pseudo`` as it was before the cluster kept its rate table:
    sort the members, rate every row and build the cluster's ``GaParams``
    on every call."""
    model = cluster.model
    members = cluster.members
    size = len(members)
    order = np.argsort(members.fitness, kind="stable")
    fracs = np.arange(size) / (size - 1) if size > 1 else np.zeros(1)
    rates = np.empty(size)
    rates[order] = adaptive_mutation_rate(fracs, size, params)
    local = replace(params.ga, pop_size=size, n_elites=min(params.ga.n_elites, size - 1))
    genomes, fitness, elites = per_row_generation(
        members.genomes, members.fitness, local, rng, fn.bounds,
        lambda xs: predict_many(model, xs), rates,
    )
    n_off = size - len(elites)
    cluster.members = Population(
        genomes,
        fitness,
        np.concatenate([members.sampled[elites], np.zeros(n_off, dtype=bool)]),
        np.arange(size) < len(elites),
    )
    return cluster


class TestPseudoGenerationOracle:
    def test_interleaved_clusters_match_the_per_generation_path(self):
        # four clusters of a scattered population, all eligible, evolved
        # generation-major as run does: the rate table and GaParams each
        # cluster keeps from fit_surrogate give the bits of recomputing them
        fn = make_function("rastrigin1", dimension=5)
        params = DpseaParams(radius_fraction=0.01, max_clusters=4, kappa=1.0, s_min=2)
        rng = np.random.default_rng(5)
        genomes = rng.uniform(-5.12, 5.12, (100, 5))
        fits = evaluate_many(fn, genomes) + rng.normal(0.0, 0.5, 100)
        clusters = self_organize(make_pop(genomes, fits), fn, params)
        ours = [fit_surrogate(c, fn, params) for c in clusters if c.eligible]
        assert len(ours) == 4
        assert len({len(c.members) for c in ours}) > 1
        ref = copy.deepcopy(ours)
        ours_rng, ref_rng = RngState(9), RngState(9)
        for _ in range(params.t_switch):
            for c, r in zip(ours, ref):
                evolve_pseudo(c, fn, params, ours_rng)
                per_generation_evolve_pseudo(r, fn, params, ref_rng)
                for f in ("genomes", "fitness", "sampled", "unchanged"):
                    assert getattr(c.members, f).tobytes() == getattr(r.members, f).tobytes()


class TestSurrogateGenerations:
    def _cluster(self, fn, ys_of):
        rng = np.random.default_rng(4)
        genomes = rng.uniform(-2, 2, (12, fn.dimension))
        pop = make_pop(genomes, ys_of(genomes, rng))
        c = self_organize(pop, fn, small_params(radius_fraction=1.0))[0]
        c.eligible = True
        return c

    def test_faithful_model_gets_all_generations(self):
        fn = make_function("sphere", dimension=2)
        params = small_params()
        c = fit_surrogate(
            self._cluster(fn, lambda g, rng: np.sum(g * g, axis=1)), fn, params
        )
        assert c.model.kind is ModelKind.DIAG_QUADRATIC
        assert c.fidelity == pytest.approx(1.0)
        assert surrogate_generations(c, params) == params.t_switch

    def test_model_of_noise_gets_few_or_none(self):
        fn = make_function("sphere", dimension=2)
        params = small_params()
        c = fit_surrogate(
            self._cluster(fn, lambda g, rng: rng.normal(size=len(g))), fn, params
        )
        assert c.fidelity < 0.5
        assert surrogate_generations(c, params) < params.t_switch / 2

    def test_empty_archive_rejected(self):
        fn = make_function("sphere", dimension=2)
        params = small_params()
        c = self._cluster(fn, lambda g, rng: np.sum(g * g, axis=1))
        c.archive = (np.empty((0, 2)), np.empty(0))
        with pytest.raises(ValueError):
            fit_surrogate(c, fn, params)

    def test_scaling_and_rounding(self):
        params = small_params(t_switch=10)
        c = self._cluster(make_function("sphere", dimension=2),
                          lambda g, rng: np.zeros(len(g)))
        for fidelity, want in ((-0.3, 0), (0.04, 0), (0.26, 3), (0.71, 7), (1.0, 10)):
            c.fidelity = fidelity
            assert surrogate_generations(c, params) == want


class TestMergeAndResample:
    def test_hand_counted_budget(self):
        # 100 members, 10 exempt elites, rs = 5:
        # charged (100 - 10) * 5 = 450, skipped 10 * 5 = 50
        fn = make_function("sphere", dimension=2)
        params = DpseaParams(ga=GaParams(pop_size=100, n_elites=10), rs_merge=5)
        rng = np.random.default_rng(0)
        pop = make_pop(rng.uniform(-50, 50, (100, 2)))
        pop.unchanged[:10] = True
        clusters = self_organize(pop, fn, small_params(
            ga=GaParams(pop_size=100, n_elites=10), radius_fraction=1.0))
        budget = Budget(pop_size=100, total_it=0, rs=5)
        merged = merge_and_resample(
            clusters, fn, NoiseModel(0.0, 0.0), RngState(1), budget, params
        )
        assert len(merged) == 100
        assert budget.total_eval == 450
        assert budget.total_unchanged == 50

    def test_exempt_members_keep_fitness(self):
        fn = make_function("sphere", dimension=2)
        params = small_params(ga=GaParams(pop_size=4, n_elites=1), s_min=2)
        pop = make_pop(np.zeros((4, 2)), [1.0, 2.0, 3.0, 4.0])
        pop.unchanged[0] = True
        clusters = self_organize(pop, fn, params)
        budget = Budget(pop_size=4, total_it=0, rs=1)
        merged = merge_and_resample(
            clusters, fn, NoiseModel(0.0, 0.0), RngState(1), budget, params
        )
        assert merged.unchanged.sum() == 1
        assert merged.fitness[merged.unchanged][0] == 1.0
        # true sphere value at origin
        assert np.all(merged.fitness[~merged.unchanged] == 0.0)

    def test_non_eligible_clusters_merge_as_they_are(self):
        fn = make_function("sphere", dimension=2)
        params = small_params(ga=GaParams(pop_size=6, n_elites=1), kappa=0.5,
                              s_min=2, radius_fraction=0.01)
        pop = make_pop([[i, -i] for i in range(6)])
        clusters = self_organize(pop, fn, params)
        assert sum(c.eligible for c in clusters) < len(clusters)
        budget = Budget(pop_size=6, total_it=0, rs=1)
        merged = merge_and_resample(
            clusters, fn, NoiseModel(0.0, 0.0), RngState(7), budget, params
        )
        assert np.array_equal(
            merged.genomes, np.concatenate([c.members.genomes for c in clusters])
        )
        assert budget.total_eval == 6

    def test_short_cluster_set_raises(self):
        # clusters partition the population, so fewer members than
        # pop_size means the caller lost some
        fn = make_function("sphere", dimension=2)
        params = small_params(ga=GaParams(pop_size=8, n_elites=1))
        pop = make_pop(np.zeros((5, 2)))
        clusters = self_organize(pop, fn, small_params(
            ga=GaParams(pop_size=5, n_elites=1), radius_fraction=1.0))
        budget = Budget(pop_size=8, total_it=0, rs=1)
        with pytest.raises(ValueError):
            merge_and_resample(
                clusters, fn, NoiseModel(0.0, 0.0), RngState(1), budget, params
            )
        assert budget.total_eval == 0

    def test_over_the_cap_returns_none_and_charges_nothing(self):
        # 10 members, 2 exempt elites, rs = 2: the merge costs 16; with 85
        # already spent, a cap of 100 leaves room for 15
        fn = make_function("sphere", dimension=2)
        params = small_params(ga=GaParams(pop_size=10, n_elites=2), rs_merge=2,
                              max_total_eval=100)
        pop = make_pop(np.ones((10, 2)))
        pop.unchanged[:2] = True
        clusters = self_organize(pop, fn, params)
        fitness = [c.members.fitness.copy() for c in clusters]
        budget = Budget(pop_size=10, total_it=0, rs=2, total_eval=85)
        merged = merge_and_resample(
            clusters, fn, NoiseModel(0.0, 1.0), RngState(1), budget, params
        )
        assert merged is None
        assert (budget.total_eval, budget.total_unchanged) == (85, 0)
        for c, before in zip(clusters, fitness):
            assert np.array_equal(c.members.fitness, before)
        # one evaluation less spent and the same merge fits
        budget.total_eval = 84
        merged = merge_and_resample(
            clusters, fn, NoiseModel(0.0, 1.0), RngState(1), budget, params
        )
        assert len(merged) == 10
        assert (budget.total_eval, budget.total_unchanged) == (100, 4)


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

    def test_rs_merge_scales_consumption(self):
        fn = make_function("sphere")
        p1 = small_params(max_total_eval=4000, rs_merge=1)
        p5 = small_params(max_total_eval=4000, rs_merge=5)
        r1 = run(fn, NoiseModel(0.0, 0.5), p1, RngState(6))
        r5 = run(fn, NoiseModel(0.0, 0.5), p5, RngState(6))
        assert len(r5.trace) < len(r1.trace)
        assert r5.budget.total_eval <= 4000
