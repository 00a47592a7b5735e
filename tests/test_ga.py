import math
from dataclasses import dataclass

import numpy as np
import pytest

from dpsea.ga import GaParams, evolve_generation
from dpsea.stochastics import RngState


# Scalar oracles: one individual or one pair at a time, each draw in the
# order a hand computation would take it. ``evolve_generation`` draws a
# whole generation at once and must agree with them draw for draw.


@dataclass
class Individual:
    genome: np.ndarray
    fitness_est: float = math.nan
    sampled: bool = False


def tournament_select(pop, k, rng):
    """Best of ``k`` uniform draws with replacement; ties go to the lower index."""
    if not pop:
        raise ValueError("cannot select from an empty population")
    if k < 1:
        raise ValueError("tournament size must be >= 1")
    idx = rng.integers(0, len(pop), k)
    best = min(idx, key=lambda i: (pop[i].fitness_est, i))
    return pop[int(best)]


def arithmetic_crossover(a, b, p_c, rng):
    """Whole-arithmetic crossover with a single alpha per pair.

    With probability ``p_c`` the children are the two convex combinations
    of the parents; otherwise they are plain copies. Children are stale
    (fitness NaN, flags cleared) either way.
    """
    if a.genome.shape != b.genome.shape:
        raise ValueError("parent genomes must have the same length")
    if rng.uniform() < p_c:
        alpha = rng.uniform()
        g1 = alpha * a.genome + (1.0 - alpha) * b.genome
        g2 = (1.0 - alpha) * a.genome + alpha * b.genome
    else:
        g1 = a.genome.copy()
        g2 = b.genome.copy()
    return Individual(g1), Individual(g2)


def gaussian_mutate(ind, p_m, sigma_m, bounds, rng):
    """Per-gene additive N(0, sigma_m) noise with probability ``p_m``, clamped.

    The mask's uniforms come first, then one normal per mutated gene.
    """
    if sigma_m < 0:
        raise ValueError("sigma_m must be nonnegative")
    d = ind.genome.shape[0]
    mask = rng.uniform(size=d) < p_m
    genome = ind.genome.copy()
    if sigma_m > 0:
        steps = rng.normal(0.0, math.sqrt(sigma_m), int(mask.sum()))
        for gene, step in zip(np.flatnonzero(mask), steps):
            genome[gene] += step
    return Individual(np.clip(genome, bounds[0], bounds[1]))


def split_by_row(normals, mask):
    """A generation's one vector of mutation steps, split into each row's."""
    return np.split(normals, np.cumsum(mask.sum(axis=1))[:-1])


class FakeRng:
    """Plays back scripted uniform/integer/normal draws for oracles.

    ``normals`` holds whole arrays, one per ``normal`` call.
    """

    def __init__(self, uniforms=(), ints=(), normals=()):
        self._uniforms = list(uniforms)
        self._ints = list(ints)
        self._normals = list(normals)

    def uniform(self, low=0.0, high=1.0, size=None):
        if size is None:
            return self._uniforms.pop(0)
        return np.array([self._uniforms.pop(0) for _ in range(int(size))])

    def integers(self, low, high, size=None):
        if size is None:
            return self._ints.pop(0)
        return np.array([self._ints.pop(0) for _ in range(int(size))])

    def normal(self, loc=0.0, scale=1.0, size=None):
        if not self._normals:
            raise AssertionError("unexpected normal draw")
        return self._normals.pop(0)


class RecordingRng:
    """An ``RngState`` that keeps every array it hands out, and the name of
    the method that drew it."""

    def __init__(self, seed):
        self._rng = RngState(seed)
        self.draws = []
        self.calls = []

    def _keep(self, call, out):
        self.calls.append(call)
        self.draws.append(out)
        return out

    def integers(self, low, high, size=None):
        return self._keep("integers", self._rng.integers(low, high, size))

    def random(self, size=None):
        return self._keep("random", self._rng.random(size))

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._keep("normal", self._rng.normal(loc, scale, size))


def make_pop(fits):
    return [Individual(np.array([float(i)]), f) for i, f in enumerate(fits)]


class TestGaParams:
    def test_defaults(self):
        p = GaParams()
        assert (p.pop_size, p.p_c, p.p_m, p.n_elites, p.sigma_m) == (
            100,
            1.0,
            0.3,
            10,
            0.01,
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pop_size": 0},
            {"p_c": 1.5},
            {"p_m": -0.1},
            {"n_elites": 100},
            {"sigma_m": -1.0},
            {"sigma_m": math.nan},
            {"sigma_m": math.inf},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GaParams(**kwargs)


class TestTournament:
    def test_picks_lower_fitness(self):
        pop = make_pop([5.0, 1.0, 3.0])
        got = tournament_select(pop, 2, FakeRng(ints=[0, 1]))
        assert got is pop[1]

    def test_tie_goes_to_lower_index(self):
        pop = make_pop([2.0, 2.0, 2.0])
        got = tournament_select(pop, 2, FakeRng(ints=[2, 1]))
        assert got is pop[1]

    def test_empty_pop_rejected(self):
        with pytest.raises(ValueError):
            tournament_select([], 2, RngState(0))

    def test_selection_probability_oracle(self):
        # binary tournament over 5 distinct individuals: the best wins
        # whenever it is drawn at all, so P(best) = (2*4 + 1) / 25 = 9/25
        pop = make_pop([0.0, 1.0, 2.0, 3.0, 4.0])
        rng = RngState(42)
        trials = 40_000
        wins = sum(
            1 for _ in range(trials) if tournament_select(pop, 2, rng) is pop[0]
        )
        assert abs(wins / trials - 9 / 25) < 0.01


class TestCrossover:
    def test_hand_example(self):
        # alpha = 0.25 on parents (2,2) and (0,0):
        #   c1 = 0.25*(2,2) + 0.75*(0,0) = (0.5, 0.5)
        #   c2 = 0.75*(2,2) + 0.25*(0,0) = (1.5, 1.5)
        a = Individual(np.array([2.0, 2.0]), 1.0)
        b = Individual(np.array([0.0, 0.0]), 2.0)
        c1, c2 = arithmetic_crossover(a, b, 1.0, FakeRng(uniforms=[0.0, 0.25]))
        assert np.allclose(c1.genome, [0.5, 0.5])
        assert np.allclose(c2.genome, [1.5, 1.5])

    def test_children_are_stale(self):
        a = Individual(np.array([1.0]), 1.0, sampled=True)
        b = Individual(np.array([2.0]), 2.0, sampled=True)
        c1, c2 = arithmetic_crossover(a, b, 1.0, RngState(0))
        assert np.isnan(c1.fitness_est) and np.isnan(c2.fitness_est)
        assert not c1.sampled and not c2.sampled

    def test_no_crossover_copies_parents(self):
        a = Individual(np.array([1.0, 2.0]), 1.0)
        b = Individual(np.array([3.0, 4.0]), 2.0)
        c1, c2 = arithmetic_crossover(a, b, 0.0, RngState(0))
        assert np.array_equal(c1.genome, a.genome)
        assert np.array_equal(c2.genome, b.genome)
        assert c1.genome is not a.genome

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            arithmetic_crossover(
                Individual(np.zeros(2)), Individual(np.zeros(3)), 1.0, RngState(0)
            )

    def test_children_stay_in_parent_hull(self):
        rng = RngState(5)
        a = Individual(np.array([-1.0, 4.0]))
        b = Individual(np.array([3.0, -2.0]))
        lo = np.minimum(a.genome, b.genome)
        hi = np.maximum(a.genome, b.genome)
        for _ in range(200):
            c1, c2 = arithmetic_crossover(a, b, 1.0, rng)
            for c in (c1, c2):
                assert np.all(c.genome >= lo - 1e-12)
                assert np.all(c.genome <= hi + 1e-12)


class TestMutation:
    def test_zero_sigma_is_identity(self):
        ind = Individual(np.array([1.0, 2.0, 3.0]))
        got = gaussian_mutate(ind, 1.0, 0.0, (-10.0, 10.0), RngState(0))
        assert np.array_equal(got.genome, ind.genome)

    def test_zero_rate_is_identity(self):
        ind = Individual(np.array([1.0, 2.0, 3.0]))
        got = gaussian_mutate(ind, 0.0, 1.0, (-10.0, 10.0), RngState(0))
        assert np.array_equal(got.genome, ind.genome)

    def test_clamped_to_bounds(self):
        ind = Individual(np.full(20, 1.0))
        rng = RngState(3)
        for _ in range(50):
            got = gaussian_mutate(ind, 1.0, 4.0, (0.0, 2.0), rng)
            assert np.all(got.genome >= 0.0) and np.all(got.genome <= 2.0)

    def test_noise_std_matches_sqrt_sigma_m(self):
        # sigma_m is a variance: per-gene perturbation std is sqrt(sigma_m)
        ind = Individual(np.zeros(10_000))
        got = gaussian_mutate(ind, 1.0, 0.04, (-1e9, 1e9), RngState(11))
        assert abs(got.genome.std() - 0.2) < 0.01


class TestEvolveGeneration:
    def setup_method(self):
        self.params = GaParams(pop_size=20, n_elites=4)
        rng = RngState(1)
        self.genomes = rng.uniform(-1, 1, (20, 3))
        self.fitness = np.arange(20, dtype=float)

    def sphere(self, xs):
        return np.sum(xs * xs, axis=1)

    def test_size_preserved(self):
        for k in (1, 3):
            genomes, fitness, source = evolve_generation(
                self.genomes, self.fitness, self.params, RngState(2), (-1.0, 1.0),
                self.sphere, generations=k,
            )
            assert genomes.shape == (20, 3)
            assert fitness.shape == (20,)
            assert source.shape == (4,)

    def test_elites_carried_unchanged(self):
        genomes, fitness, source = evolve_generation(
            self.genomes, self.fitness, self.params, RngState(2), (-1.0, 1.0),
            lambda xs: np.zeros(len(xs)),
        )
        # the four best input rows, copied with their fitness; the offspring
        # after them score 0
        assert np.array_equal(source, np.arange(4))
        assert np.array_equal(genomes[:4], self.genomes[:4])
        assert np.array_equal(fitness[:4], self.fitness[:4])
        assert not fitness[4:].any()

    def test_fitness_called_once_per_offspring(self):
        calls = []

        def score(xs):
            calls.append(len(xs))
            return np.zeros(len(xs))

        evolve_generation(
            self.genomes, self.fitness, self.params, RngState(2), (-1.0, 1.0), score
        )
        # one call, one row per offspring
        assert calls == [self.params.pop_size - self.params.n_elites]

    def test_batch_and_scalar_paths_agree(self):
        # replay the draws of one generation through the scalar oracles
        params = GaParams(pop_size=20, n_elites=4, p_c=0.6, p_m=0.4, sigma_m=0.25)
        rng = RecordingRng(7)
        genomes, fitness, _ = evolve_generation(
            self.genomes, self.fitness, params, rng, (-1.0, 1.0), self.sphere
        )
        draws, u_cross, alphas, mask_u, normals = rng.draws
        steps = split_by_row(normals, mask_u < params.p_m)
        pop = [Individual(g, f) for g, f in zip(self.genomes, self.fitness)]
        children = []
        for k in range(len(u_cross)):
            a, b = (
                tournament_select(pop, 2, FakeRng(ints=draws[k, slot].tolist()))
                for slot in range(2)
            )
            children += arithmetic_crossover(
                a, b, params.p_c, FakeRng(uniforms=[u_cross[k], alphas[k]])
            )
        for j, child in enumerate(children):
            got = gaussian_mutate(
                child, params.p_m, params.sigma_m, (-1.0, 1.0),
                FakeRng(uniforms=mask_u[j], normals=[steps[j]]),
            )
            assert np.array_equal(genomes[4 + j], got.genome)
            assert fitness[4 + j] == pytest.approx(float(np.sum(got.genome**2)))

    def test_rates_by_rank_match_a_per_row_reference(self):
        # the rate table is indexed by fitness rank; the reference gives each
        # row the rate of its rank, counted directly (ties to the lower row),
        # and replays the draws through the scalar oracles
        params = GaParams(pop_size=20, n_elites=4, p_c=0.6, p_m=0.4, sigma_m=0.25)
        fitness = np.array([3.0, 1.0, 3.0, 0.5, 2.0] * 4)
        table = np.linspace(0.05, 0.95, 20)
        rng = RecordingRng(8)
        genomes, _, _ = evolve_generation(
            self.genomes, fitness, params, rng, (-1.0, 1.0), self.sphere,
            mutation_rates=table,
        )
        want, _, _ = reference_generations(
            self.genomes, fitness, params, rng.draws, (-1.0, 1.0), self.sphere, table, 1
        )
        assert np.array_equal(genomes, want)

    @pytest.mark.parametrize("p_m, sigma_m, table_rate", [
        (0.4, 0.25, None),
        (0.4, 0.25, 0.7),
        (0.0, 0.25, None),
        (0.4, 0.25, 0.0),
        (0.4, 0.0, None),
    ])
    def test_one_normal_per_mutated_gene(self, p_m, sigma_m, table_rate):
        # after the mask's uniforms, one normal call with a step for each
        # mutated gene (size 0 when no gene mutates), and none at sigma_m = 0
        params = GaParams(pop_size=20, n_elites=4, p_m=p_m, sigma_m=sigma_m)
        table = None if table_rate is None else np.full(20, table_rate)
        rng = RecordingRng(9)
        evolve_generation(self.genomes, self.fitness, params, rng, (-1.0, 1.0),
                          self.sphere, mutation_rates=table)
        mask_draws = ["integers", "random", "random", "random"]
        if sigma_m == 0:
            assert rng.calls == mask_draws
            return
        assert rng.calls == mask_draws + ["normal"]
        mask_u, normals = rng.draws[3:]
        rate = p_m if table_rate is None else table_rate
        assert normals.shape == (int(np.sum(mask_u < rate)),)

    def test_offspring_within_bounds(self):
        genomes, _, _ = evolve_generation(
            self.genomes, self.fitness, self.params, RngState(5), (-0.5, 0.5),
            lambda xs: np.zeros(len(xs)),
        )
        assert np.all(genomes[self.params.n_elites :] >= -0.5)
        assert np.all(genomes[self.params.n_elites :] <= 0.5)

    def test_wrong_population_size_rejected(self):
        with pytest.raises(ValueError):
            evolve_generation(
                self.genomes[:10], self.fitness[:10], self.params, RngState(0),
                (-1, 1), lambda xs: np.zeros(len(xs)),
            )


def reference_generations(genomes, fitness, params, draws, bounds, score, table, generations):
    """``generations`` steps through the scalar oracles, one row or pair at a
    time, replaying recorded draws (a list in draw order) generation by
    generation. Elites are the first ``n_elites`` rows by (fitness, row) and
    each row's rate is the table entry of its rank, counted directly.
    Returns the last ``(genomes, fitness)`` and, per elite, the input row it
    was copied from or -1."""
    draws = list(draws)
    n = len(fitness)
    n_off = n - params.n_elites
    pop = [Individual(g, f) for g, f in zip(genomes, fitness)]
    source = list(range(n))
    for _ in range(generations):
        ints, u_cross, alphas, mask_u = (draws.pop(0) for _ in range(4))
        normals = draws.pop(0) if params.sigma_m > 0 else np.empty(0)
        key = [(p.fitness_est, i) for i, p in enumerate(pop)]
        elites = sorted(range(n), key=key.__getitem__)[: params.n_elites]
        row_rate = [params.p_m if table is None else table[sum(k < key[i] for k in key)]
                    for i in range(n)]
        children = []
        for k in range(len(u_cross)):
            a, b = (
                tournament_select(pop, 2, FakeRng(ints=ints[k, slot].tolist()))
                for slot in range(2)
            )
            # each child of a pair mutates at the rate of the parent in its slot
            rates = [row_rate[next(i for i, p in enumerate(pop) if p is q)] for q in (a, b)]
            children += zip(arithmetic_crossover(
                a, b, params.p_c, FakeRng(uniforms=[u_cross[k], alphas[k]])
            ), rates)
        children = children[:n_off]
        child_rates = np.array([rate for _, rate in children])
        steps = split_by_row(normals, mask_u < child_rates[:, None])
        mutated = [
            gaussian_mutate(child, rate, params.sigma_m, bounds,
                            FakeRng(uniforms=mask_u[j], normals=[steps[j]])).genome
            for j, (child, rate) in enumerate(children)
        ]
        scores = score(np.array(mutated).reshape(n_off, -1))
        pop = [Individual(pop[i].genome, pop[i].fitness_est) for i in elites] + [
            Individual(g, f) for g, f in zip(mutated, scores)
        ]
        source = [source[i] for i in elites] + [-1] * n_off
    assert not draws
    return (np.array([p.genome for p in pop]), np.array([p.fitness_est for p in pop]),
            source[: params.n_elites])


class TestGenerations:
    """``generations=k`` against the per-row reference and against k calls of
    ``generations=1``, bit for bit."""

    def coarse_sphere(self, xs):
        # rounded, so offspring tie with each other and with the input
        return np.round(np.sum(xs * xs, axis=1), 1)

    @pytest.mark.parametrize("pop_size, n_elites, p_c, sigma_m, table, k", [
        (20, 4, 0.6, 0.25, True, 3),  # tied fitness, rank rates, uncrossed pairs
        (20, 4, 0.6, 0.0, True, 3),  # no mutation step, no normal draw
        (20, 0, 1.0, 0.25, False, 4),  # no elites
        (21, 4, 1.0, 0.25, True, 3),  # odd offspring count
        (1, 0, 0.6, 0.25, True, 3),  # one individual
        (20, 4, 1.0, 0.25, False, 5),  # defaults but the population size
    ])
    def test_k_generations_match_reference_and_k_calls(
        self, pop_size, n_elites, p_c, sigma_m, table, k
    ):
        params = GaParams(pop_size=pop_size, n_elites=n_elites, p_c=p_c, p_m=0.4,
                          sigma_m=sigma_m)
        genomes = RngState(1).uniform(-1, 1, (pop_size, 3))
        fitness = np.resize([3.0, 1.0, 3.0, 0.5, 2.0], pop_size)
        rates = np.linspace(0.05, 0.95, pop_size) if table else None
        bounds = (-1.0, 1.0)

        rng = RecordingRng(8)
        got = evolve_generation(genomes, fitness, params, rng, bounds,
                                self.coarse_sphere, mutation_rates=rates, generations=k)
        per_generation = ["integers", "random", "random", "random"] + (
            ["normal"] if sigma_m > 0 else [])
        assert rng.calls == per_generation * k

        want_genomes, want_fitness, want_source = reference_generations(
            genomes, fitness, params, rng.draws, bounds, self.coarse_sphere, rates, k)
        assert np.array_equal(got[0], want_genomes)
        assert np.array_equal(got[1], want_fitness)
        assert got[2].tolist() == want_source

        one_rng = RecordingRng(8)
        g, f, source = genomes, fitness, np.arange(pop_size)
        for _ in range(k):
            g, f, elites = evolve_generation(g, f, params, one_rng, bounds,
                                             self.coarse_sphere, mutation_rates=rates)
            source = np.concatenate([source[elites], np.full(pop_size - n_elites, -1)])
        assert one_rng.calls == rng.calls
        assert np.array_equal(g, got[0]) and np.array_equal(f, got[1])
        assert np.array_equal(source[:n_elites], got[2])

    def test_elite_provenance_sets_the_merge_exemption(self):
        # rows 0 and 2 beat every child (offspring score >= 0) and stay elites
        # for all 4 steps; the third elite is a child born inside the call
        params = GaParams(pop_size=10, n_elites=3, sigma_m=0.25)
        genomes = RngState(1).uniform(-1, 1, (10, 3))
        fitness = np.array([-5.0, 7.0, -4.0, 8.0, 9.0, 6.0, 5.0, 4.0, 3.0, 2.0])

        def score(xs):
            return np.sum(xs * xs, axis=1)

        out = evolve_generation(genomes, fitness, params, RngState(4), (-1.0, 1.0),
                                score, generations=4)
        source = out[2]
        # copied from an input row: the merge keeps it, with the input's
        # genome and fitness; born inside the call: the merge rescores it
        assert source.tolist() == [0, 2, -1]
        assert np.array_equal(out[0][:2], genomes[[0, 2]])
        assert out[1][:2].tolist() == [-5.0, -4.0]
        assert out[1][2] == score(out[0][2:3])[0]

        g, f, rng = genomes, fitness, RngState(4)
        chained = np.arange(10)
        for _ in range(4):
            g, f, elites = evolve_generation(g, f, params, rng, (-1.0, 1.0), score)
            chained = np.concatenate([chained[elites], np.full(7, -1)])
        assert np.array_equal(g, out[0]) and np.array_equal(f, out[1])
        assert np.array_equal(chained[:3], source)

    def test_zero_generations_return_the_population(self):
        # the kernel refuses 0 generations before any draw or write, so a
        # step that earns none keeps its population as it is
        genomes, fitness = np.zeros((4, 2)), np.arange(4.0)
        params = GaParams(pop_size=4, n_elites=1)
        rng = RecordingRng(0)
        with pytest.raises(ValueError):
            evolve_generation(genomes, fitness, params, rng, (-1.0, 1.0), None,
                              generations=0)
        assert rng.calls == []
        assert not genomes.any() and fitness.tolist() == [0.0, 1.0, 2.0, 3.0]
