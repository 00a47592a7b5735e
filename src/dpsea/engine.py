"""Distributed population switching engine.

One run starts from an initial design seeded with a global surrogate's
minimizer, then alternates between a single main population, evolved on
resampled noisy fitness, and a set of self-organized clusters
(pseudo-populations) that evolve on regression-estimated fitness at zero
evaluation cost, for as many generations (up to ``t_switch``) as their
model's leave-one-out fidelity earns. At each switching step the clusters
merge back, true fitness is resampled, and the population re-dissolves.
Clusters that stay non-eligible for too many consecutive cycles are
replaced by fresh random individuals.

The population is a ``ga.Population`` of arrays. Each cluster holds its
members as a ``Population`` of its own (rows copied from the dissolved
population, listed in ``rows``) and its regression archive as an
``(xs, ys)`` pair of arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _blas, benchmarks, regression
from .ga import GaParams, Population
from .regression import ModelKind, RegressionModel
from .results import CycleRecord, RunResult
from .stochastics import Budget, resample_many

__all__ = [
    "PseudoPopulation",
    "DpseaParams",
    "self_organize",
    "assess_eligibility",
    "adaptive_mutation_rate",
    "fit_surrogate",
    "surrogate_generations",
    "evolve_pseudo",
    "merge_and_resample",
    "initial_design",
    "run",
]


@dataclass
class PseudoPopulation:
    """A self-organized cluster acting as distributed memory for one region.

    ``members`` are copies of the ``rows`` of the dissolved population,
    ``seed_index`` among them. ``archive`` is an ``(xs, ys)`` pair of
    genomes ``(m, D)`` and fitness ``(m,)`` that came from actual resampled
    evaluation at the latest switching step; regression models are fitted
    on it, never on estimated values. ``fidelity`` is the model's
    leave-one-out rank correlation on that archive.
    """

    members: Population
    rows: np.ndarray
    seed_index: int
    archive: tuple[np.ndarray, np.ndarray]
    eligible: bool = False
    staleness: int = 0
    model: RegressionModel | None = None
    fidelity: float = 0.0

    @property
    def centroid(self):
        return self.members.genomes.mean(axis=0)


@dataclass(frozen=True)
class DpseaParams:
    ga: GaParams = field(default_factory=GaParams)
    # most pseudo generations per cycle; a cluster runs
    # round(t_switch * max(0, fidelity)) of them
    t_switch: int = 10
    max_clusters: int = 10
    radius_fraction: float = 0.1
    kappa: float = 0.5
    s_min: int = 5
    staleness_limit: int = 2
    rs_merge: int = 1
    max_total_eval: int = 90_000
    regression_lambda: float = 1e-6
    quadratic_min_samples_factor: float = 1.0

    def __post_init__(self):
        if self.t_switch < 1:
            raise ValueError("t_switch must be >= 1")
        if self.max_clusters < 1:
            raise ValueError("max_clusters must be >= 1")
        if not 0.0 < self.radius_fraction <= 1.0:
            raise ValueError("radius_fraction must be in (0, 1]")
        if not 0.0 < self.kappa <= 1.0:
            raise ValueError("kappa must be in (0, 1]")
        if not 1 <= self.s_min <= self.ga.pop_size:
            raise ValueError("s_min must be in [1, pop_size]")
        if self.staleness_limit < 1:
            raise ValueError("staleness_limit must be >= 1")
        if self.rs_merge < 1:
            raise ValueError("rs_merge must be >= 1")


# extra uniform samples in the initial design, in units of the 2D + 2
# samples a diagonal-quadratic fit needs: at 40 the fit's minimizer had all
# 50 rastrigin1 coordinates in the global basin on each seed checked; at 20
# it missed one coordinate on some seeds
DESIGN_FACTOR = 40


def _domain_diagonal(fn):
    return math.sqrt(fn.dimension) * (fn.upper_bound - fn.lower_bound)


def self_organize(pop, fn, params, samples=None):
    """Dissolve a population into disjoint clusters, greedy best-first.

    The best unassigned individual seeds a new cluster (up to
    ``max_clusters``) and captures every unassigned individual within
    ``radius_fraction`` of the domain diagonal; leftovers then join the
    nearest seed (ties to the lower seed index). Members keep population
    order. Archives hold actually-evaluated (genome, fitness) pairs: the
    members' own sampled fitness, or, when ``samples`` is given as an
    ``(xs, ys)`` pool of true-fitness observations from the current
    switching step, each observation assigned to its nearest seed (ties to
    the earlier cluster).
    """
    n = len(pop)
    if n == 0:
        raise ValueError("cannot organize an empty population")
    genomes = pop.genomes
    radius = params.radius_fraction * _domain_diagonal(fn)

    label = np.full(n, -1)  # cluster of each individual, -1 unassigned
    order = np.argsort(pop.fitness, kind="stable")
    seeds = []
    while len(seeds) < params.max_clusters:
        free = order[label[order] < 0]
        if free.size == 0:
            break
        i = int(free[0])
        dist = np.linalg.norm(genomes - genomes[i], axis=1)
        label[(label < 0) & (dist <= radius)] = len(seeds)
        seeds.append(i)
    seeds = np.array(seeds)

    leftover = np.flatnonzero(label < 0)
    if leftover.size:
        by_index = np.argsort(seeds)
        dists = np.linalg.norm(
            genomes[leftover][:, None, :] - genomes[seeds[by_index]][None, :, :],
            axis=2,
        )
        label[leftover] = by_index[np.argmin(dists, axis=1)]

    if samples is not None:
        xs, ys = (np.asarray(v, dtype=np.float64) for v in samples)
        dists = np.linalg.norm(xs[:, None, :] - genomes[seeds][None, :, :], axis=2)
        nearest = np.argmin(dists, axis=1)

    clusters = []
    for k, seed in enumerate(seeds.tolist()):
        rows = np.flatnonzero(label == k)
        members = pop.take(rows)
        if samples is None:
            sampled = members.sampled
            archive = (members.genomes[sampled], members.fitness[sampled])
        else:
            archive = (xs[nearest == k], ys[nearest == k])
        clusters.append(PseudoPopulation(members, rows, seed, archive))
    return clusters


def assess_eligibility(clusters, params):
    """Grant evolution right to the fittest, sufficiently large clusters.

    A cluster is eligible iff it has at least ``s_min`` members and its
    best member ranks within the top ``ceil(kappa * n_clusters)`` clusters
    by best fitness (ties to lower seed index). Eligible clusters reset
    their staleness; the rest age by one cycle, saturating at
    ``staleness_limit``.
    """
    n = len(clusters)
    if n == 0:
        return clusters
    best = [c.members.fitness.min() for c in clusters]
    ranking = sorted(range(n), key=lambda i: (best[i], clusters[i].seed_index))
    top = set(ranking[: math.ceil(params.kappa * n)])
    for i, c in enumerate(clusters):
        m = c.members
        c.eligible = i in top and len(m) >= params.s_min
        if c.eligible:
            m.stale_cycles[:] = 0
        else:
            np.minimum(m.stale_cycles + 1, params.staleness_limit, out=m.stale_cycles)
        c.staleness = int(m.stale_cycles.min())
    return clusters


def adaptive_mutation_rate(rank_fraction, cluster_size, params):
    """Mutation rate increasing with fitness rank, decreasing with cluster size.

    ``clamp(p_m * (0.5 + rank_fraction) * sqrt(s_min / cluster_size), 0.05, 1.0)``
    with ``rank_fraction`` in [0, 1] (best member 0, worst 1). An array of
    rank fractions gives an array of rates; a scalar gives a float.
    """
    r = np.asarray(rank_fraction, dtype=np.float64)
    if not np.all((r >= 0.0) & (r <= 1.0)):
        raise ValueError("rank_fraction must be in [0, 1]")
    if cluster_size < 1:
        raise ValueError("cluster_size must be positive")
    rate = params.ga.p_m * (0.5 + r) * math.sqrt(params.s_min / cluster_size)
    rate = np.clip(rate, 0.05, 1.0)
    return float(rate) if rate.ndim == 0 else rate


def fit_surrogate(cluster, fn, params):
    """Fit the cluster's model on its archive and rate how well it ranks.

    The basis is the richest the archive supports; an empty archive gives
    a constant model of the members' fitness. ``fidelity`` is the leave-
    one-out rank correlation of the fit on the archive, 0 when there is
    no archive to check it on.
    """
    xs, ys = cluster.archive
    lam = params.regression_lambda
    if len(ys) == 0:
        m = cluster.members
        cluster.model = regression.fit(m.genomes, m.fitness, ModelKind.CONSTANT, lam)
        cluster.fidelity = 0.0
        return cluster
    kind = regression.select_kind(
        len(ys), fn.dimension, params.quadratic_min_samples_factor
    )
    basis = regression.design_matrix(xs, kind)
    cluster.model = regression.fit(xs, ys, kind, lam, basis=basis)
    cluster.fidelity = regression.loo_rank_correlation(xs, ys, kind, lam, basis=basis)
    return cluster


def surrogate_generations(cluster, params):
    """Pseudo generations an eligible cluster runs this cycle.

    ``t_switch`` scaled by the model's fidelity and rounded:
    ``round(t_switch * max(0, fidelity))``. A model that ranks unseen
    points no better than chance (a fit on barely more samples than
    coefficients over a rugged, widely spread region) gets none, so it
    cannot lead the cluster away from its measured best; a faithful local
    model gets all ``t_switch``.
    """
    return round(params.t_switch * max(0.0, cluster.fidelity))


def evolve_pseudo(cluster, fn, params, rng):
    """One regression-guided GA generation inside an eligible cluster.

    Fits the cluster's surrogate from its archive on first use (the
    archive is fixed between merges, so the fit is reused), then evolves
    the members for one generation with fitness given by the model and
    per-member adaptive mutation rates. The rates set how many genes
    mutate; the step itself is the absolute ``sqrt(ga.sigma_m)`` of
    ``GaParams``, not scaled to the domain or the cluster. Consumes zero
    true evaluations; within-cluster elitism keeps the current best member
    by fitness, which mixes measured and estimated values. Offspring are
    not ``sampled``.
    """
    if not cluster.eligible:
        raise ValueError("only eligible pseudo-populations may evolve")
    members = cluster.members
    size = len(members)

    if cluster.model is None:
        fit_surrogate(cluster, fn, params)
    model = cluster.model

    order = np.argsort(members.fitness, kind="stable")
    fracs = np.arange(size) / (size - 1) if size > 1 else np.zeros(1)
    rates = np.empty(size)
    rates[order] = adaptive_mutation_rate(fracs, size, params)

    n_elites = min(params.ga.n_elites, size - 1) if size > 1 else 0
    local = replace(params.ga, pop_size=size, n_elites=n_elites)
    cluster.members = members.evolve(
        local,
        rng,
        fn.bounds,
        lambda xs: regression.predict_many(model, xs),
        sampled=False,
        mutation_rates=rates,
    )
    return cluster


def _random_individuals(fn, count, rng):
    genomes = rng.uniform(fn.lower_bound, fn.upper_bound, (count, fn.dimension))
    return Population.new(genomes, np.full(count, math.nan), sampled=False)


def _is_stale(cluster, params):
    return cluster.staleness >= params.staleness_limit


def merge_and_resample(clusters, fn, noise, rs_merge, rng, budget, params):
    """Regain the main population and refresh fitness with true resampling.

    Clusters that hit the staleness limit are replaced wholesale by fresh
    uniform-random individuals; the rest contribute their members as-is,
    cluster by cluster. Every member is then scored by resampled true
    fitness except the ``exempt`` elites (``unchanged and sampled``), which
    keep their fitness and accrue ``total_unchanged``.
    """
    parts = [
        _random_individuals(fn, len(c.members), rng) if _is_stale(c, params)
        else c.members
        for c in clusters
    ]
    n = sum(len(p) for p in parts)
    if n < params.ga.pop_size:
        parts.append(_random_individuals(fn, params.ga.pop_size - n, rng))
    if n > params.ga.pop_size:
        raise ValueError("clusters hold more members than the population size")
    pop = Population.concat(parts)

    to_eval = np.flatnonzero(~pop.exempt)
    budget.skip((len(pop) - len(to_eval)) * rs_merge)
    if len(to_eval):
        pop.fitness[to_eval] = resample_many(
            fn, pop.genomes[to_eval], rs_merge, noise, rng, budget
        )
        pop.sampled[to_eval] = True
        pop.unchanged[to_eval] = False
    return pop


def _merge_eval_count(clusters, params):
    """Evaluations the next merge will charge (exempt elites excluded)."""
    total = sum(len(c.members) for c in clusters)
    exempt = sum(
        int(c.members.exempt.sum()) for c in clusters if not _is_stale(c, params)
    )
    return max(total, params.ga.pop_size) - exempt


def initial_design(fn, noise, params, rng, budget):
    """Uniform design plus its surrogate's minimizer; returns all observations.

    Draws ``pop_size`` uniform points and, when the whole design fits in
    ``max_total_eval``, ``DESIGN_FACTOR * (2D + 2)`` more. One
    diagonal-quadratic surrogate is fitted on the resampled fitness of all
    of them, and its minimizer over the domain is evaluated as one more
    point. On a landscape with a global quadratic trend (a single big
    valley under local ripples) that minimizer lands in the global basin
    where no uniform sample does. Returns ``(genomes, values)`` of every
    evaluated point; the caller keeps the best ``pop_size``.
    """
    lo, hi = fn.bounds
    d = fn.dimension
    rs = params.rs_merge
    extra = DESIGN_FACTOR * (2 * d + 2)
    if (params.ga.pop_size + extra + 1) * rs > params.max_total_eval:
        extra = 0
    genomes = rng.uniform(lo, hi, (params.ga.pop_size + extra, d))
    vals = resample_many(fn, genomes, rs, noise, rng, budget)
    if extra == 0:
        return genomes, vals
    model = regression.fit(
        genomes, vals, ModelKind.DIAG_QUADRATIC, params.regression_lambda
    )
    best = regression.minimize(model, lo, hi)[None, :]
    best_val = resample_many(fn, best, rs, noise, rng, budget)
    return np.vstack([genomes, best]), np.concatenate([vals, best_val])


@_blas.one_thread()  # a fresh context per call: OpenBLAS on one thread
def run(fn, noise, params, rng, budget=None):
    """Full switching loop until the evaluation budget is exhausted.

    The population starts as the best ``pop_size`` points of
    ``initial_design``. Per cycle: one main-population generation on
    resampled noisy fitness (mutation step ``sqrt(ga.sigma_m)``, absolute),
    dissolution into clusters, zero-cost regression-guided generations in
    the eligible clusters (``surrogate_generations``: up to ``t_switch``,
    as many as the model's leave-one-out fidelity earns, with the same
    absolute step), then merge with true resampling. The returned best-ever
    solution is scored by the noiseless fitness (scoring does not count
    against the budget). The run keeps OpenBLAS on one thread
    (``_blas.one_thread``), so parallel runs do not contend for cores.
    """
    if budget is None:
        budget = Budget(pop_size=params.ga.pop_size, total_it=0, rs=params.rs_merge)
    rs = params.rs_merge

    design_x, design_y = initial_design(fn, noise, params, rng, budget)
    keep = np.argsort(design_y, kind="stable")[: params.ga.pop_size]
    pop = Population.new(design_x[keep], design_y[keep], sampled=True)

    true_vals = benchmarks.evaluate_many(fn, design_x)
    best_i = int(np.argmin(true_vals))
    best_genome = design_x[best_i].copy()
    best_fitness = float(true_vals[best_i])

    def track(xs):
        nonlocal best_genome, best_fitness
        tv = benchmarks.evaluate_many(fn, xs)
        i = int(np.argmin(tv))
        if tv[i] < best_fitness:
            best_fitness = float(tv[i])
            best_genome = xs[i].copy()

    # pool of (genome, resampled fitness) observations gathered since the
    # last dissolve; becomes the clusters' regression archives
    pool_x = [pop.genomes]
    pool_y = [pop.fitness]

    trace = []
    cycle = 0
    cap = params.max_total_eval
    n_elites = params.ga.n_elites
    main_cost = (params.ga.pop_size - n_elites) * rs
    while budget.total_eval + main_cost <= cap:
        # main-population generation on resampled true fitness
        pop = pop.evolve(
            params.ga,
            rng,
            fn.bounds,
            lambda xs: resample_many(fn, xs, rs, noise, rng, budget),
            sampled=True,
        )
        budget.skip(n_elites * rs)
        track(pop.genomes[n_elites:])
        pool_x.append(pop.genomes[n_elites:])
        pool_y.append(pop.fitness[n_elites:])

        samples = (np.concatenate(pool_x), np.concatenate(pool_y))
        clusters = self_organize(pop, fn, params, samples=samples)
        pool_x, pool_y = [], []
        assess_eligibility(clusters, params)
        generations = [
            surrogate_generations(fit_surrogate(c, fn, params), params)
            if c.eligible else 0
            for c in clusters
        ]
        for g in range(params.t_switch):
            for c, n in zip(clusters, generations):
                if g < n:
                    evolve_pseudo(c, fn, params, rng)

        merges = budget.total_eval + rs * _merge_eval_count(clusters, params) <= cap
        if merges:
            pop = merge_and_resample(clusters, fn, noise, rs, rng, budget, params)
            track(pop.genomes)
            pool_x.append(pop.genomes)
            pool_y.append(pop.fitness)
        trace.append(
            CycleRecord(
                cycle,
                budget.total_eval,
                best_fitness,
                len(clusters),
                sum(1 for c in clusters if c.eligible),
            )
        )
        if not merges:
            break
        cycle += 1

    return RunResult(best_genome, best_fitness, budget, trace)
