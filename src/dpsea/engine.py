"""Distributed population switching engine.

One run starts from an initial design seeded with a global surrogate's
minimizer, then alternates between a single main population, evolved on
resampled noisy fitness, and a set of self-organized clusters
(pseudo-populations) that evolve on regression-estimated fitness at zero
evaluation cost, for as many generations (up to ``t_switch``) as their
model's leave-one-out fidelity earns. At each switching step the clusters
merge back, true fitness is resampled, and the population re-dissolves.
``run`` fits each eligible cluster's surrogate before its pseudo
generations, and ends when the next main generation or merge would overrun
``max_total_eval`` (``merge_and_resample`` then returns ``None``).

The population is a ``ga.Population`` of arrays. Each cluster holds its
members as a ``Population`` of its own (rows copied from the dissolved
population, listed in ``rows``) and its regression archive as an
``(xs, ys)`` pair of arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _blas, regression
from .ga import GaParams, Population
from .regression import ModelKind, RegressionModel
from .results import CycleRecord, RunResult
from .stochastics import Budget, check_budget, resample_many

__all__ = [
    "PseudoPopulation",
    "DpseaParams",
    "self_organize",
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

    A cluster lives one cycle: ``self_organize`` builds it from the
    dissolved population and ``merge_and_resample`` returns its members.
    ``members`` are copies of the ``rows`` of the dissolved population,
    ``seed_index`` among them; the seed is the cluster's best member, and
    the clusters come best seed first. ``eligible``, set where the cluster
    is built, grants it pseudo generations this cycle. ``archive`` is an
    ``(xs, ys)`` pair of genomes ``(m, D)`` and fitness ``(m,)`` that came
    from actual resampled evaluation at the latest switching step;
    regression models are fitted on it, never on estimated values.
    ``fidelity`` is the model's leave-one-out rank correlation on that
    archive. ``fit_surrogate`` also fixes the cluster's GA settings for the
    cycle, since its size does not change until the merge: ``ga``
    (``pop_size`` the cluster size) and ``rates``, the adaptive mutation
    rate of each fitness rank.
    """

    members: Population
    rows: np.ndarray
    seed_index: int
    archive: tuple[np.ndarray, np.ndarray]
    eligible: bool
    model: RegressionModel | None = None
    fidelity: float = 0.0
    ga: GaParams | None = None
    rates: np.ndarray | None = None


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
    rs_merge: int = 1
    max_total_eval: int = 90_000
    regression_lambda: float = 1e-6

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
        if self.rs_merge < 1:
            raise ValueError("rs_merge must be >= 1")
        if not 0.0 <= self.regression_lambda < math.inf:
            raise ValueError("regression_lambda must be finite and >= 0")
        check_budget(self.max_total_eval, self.ga.pop_size, self.rs_merge)


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

    Best-first means no member, captured or leftover, precedes its seed in
    the stable fitness order, and the seeds' (fitness, row) pairs increase
    with the cluster index. The first ``ceil(kappa * n_clusters)`` clusters
    are thus the top ones by best fitness, and each of them with at least
    ``s_min`` members is ``eligible``.
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

    top = math.ceil(params.kappa * len(seeds))
    clusters = []
    for k, seed in enumerate(seeds.tolist()):
        rows = np.flatnonzero(label == k)
        members = pop.take(rows)
        if samples is None:
            sampled = members.sampled
            archive = (members.genomes[sampled], members.fitness[sampled])
        else:
            archive = (xs[nearest == k], ys[nearest == k])
        eligible = k < top and len(rows) >= params.s_min
        clusters.append(PseudoPopulation(members, rows, seed, archive, eligible))
    return clusters


def adaptive_mutation_rate(rank_fraction, cluster_size, params):
    """Mutation rate increasing with fitness rank, decreasing with cluster size.

    ``clamp(p_m * (0.5 + rank_fraction) * sqrt(s_min / cluster_size), 0.05, 1.0)``
    with ``rank_fraction`` in [0, 1] (best member 0, worst 1). An array of
    rank fractions gives an array of rates; a scalar gives an ``np.float64``.
    """
    r = np.asarray(rank_fraction, dtype=np.float64)
    if not np.all((r >= 0.0) & (r <= 1.0)):
        raise ValueError("rank_fraction must be in [0, 1]")
    if cluster_size < 1:
        raise ValueError("cluster_size must be positive")
    rate = params.ga.p_m * (0.5 + r) * math.sqrt(params.s_min / cluster_size)
    return np.clip(rate, 0.05, 1.0)


def fit_surrogate(cluster, fn, params):
    """Fit the cluster's model on its archive and rate how well it ranks.

    The basis is the richest the archive supports; an empty archive raises
    ``ValueError`` (in ``run`` every cluster's seed is in the sample pool,
    so its archive is never empty). ``regression.fit_rated`` gives the model
    and ``fidelity``, its leave-one-out rank correlation on the archive.
    The cluster's ``ga`` and rate table ``rates`` for ``evolve_pseudo`` are
    set here too, once per cycle.
    """
    xs, ys = cluster.archive
    lam = params.regression_lambda
    kind = regression.select_kind(len(ys), fn.dimension)
    cluster.model, cluster.fidelity = regression.fit_rated(xs, ys, kind, lam)
    size = len(cluster.members)
    fracs = np.arange(size) / (size - 1) if size > 1 else np.zeros(1)
    cluster.rates = adaptive_mutation_rate(fracs, size, params)
    cluster.ga = replace(
        params.ga, pop_size=size, n_elites=min(params.ga.n_elites, size - 1)
    )
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

    Evolves the members for one generation with fitness given by the
    surrogate that ``fit_surrogate`` fitted on the cluster's archive (the
    archive is fixed between merges, so one fit serves every generation),
    with the cluster's ``ga`` settings and adaptive mutation rates by
    fitness rank, both fixed by ``fit_surrogate`` for the cycle. The rates
    set how many genes mutate; the step itself is the absolute
    ``sqrt(ga.sigma_m)`` of ``GaParams``, not scaled to the domain or the
    cluster. Consumes zero true evaluations; within-cluster elitism keeps
    the current best member by fitness, which mixes measured and estimated
    values. Offspring are not ``sampled``. An ineligible or unfitted
    cluster raises ``ValueError``.
    """
    model = cluster.model
    if not cluster.eligible or model is None:
        raise ValueError("only eligible, fitted pseudo-populations may evolve")
    cluster.members = cluster.members.evolve(
        cluster.ga,
        rng,
        fn.bounds,
        lambda xs: regression.predict_many(model, xs),
        sampled=False,
        mutation_rates=cluster.rates,
    )
    return cluster


def merge_and_resample(clusters, fn, noise, rng, budget, params):
    """Regain the main population and refresh fitness with true resampling.

    The clusters contribute their members as-is, cluster by cluster, and
    must hold exactly ``pop_size`` members between them. Every member is
    then scored by ``rs_merge``-fold resampled true fitness except the
    ``exempt`` elites (``unchanged and sampled``), which keep their fitness
    and accrue ``total_unchanged``; only the rescored rows reach the
    budget's best-so-far tracker, the exempt ones having reached it when
    they were last evaluated. When that scoring would overrun
    ``max_total_eval``, returns ``None`` and charges nothing.
    """
    pop = Population.concat([c.members for c in clusters])
    if len(pop) != params.ga.pop_size:
        raise ValueError(
            f"clusters hold {len(pop)} members, not pop_size={params.ga.pop_size}"
        )

    rs = params.rs_merge
    to_eval = np.flatnonzero(~pop.exempt)
    if budget.total_eval + len(to_eval) * rs > params.max_total_eval:
        return None
    budget.skip((len(pop) - len(to_eval)) * rs)
    pop.fitness[to_eval] = resample_many(fn, pop.genomes[to_eval], rs, noise, rng, budget)
    pop.sampled[to_eval] = True
    pop.unchanged[to_eval] = False
    return pop


def _coordinate_sweep(fn, x, fx, noise, params, rng, budget):
    """One pass of parabolic steps from ``x`` (measured ``fx``), coordinate
    by coordinate; returns ``(genomes, values)`` of every point evaluated.

    Along coordinate ``j`` the current point and two probes at ``-h, +h``
    (``+h, +2h`` or ``-h, -2h`` at a bound), with ``h = sqrt(sigma_m)`` at
    most a quarter of the domain, define a parabola. Where it is convex its
    vertex, clipped to the domain, is evaluated and kept when the measured
    gain is at least half the predicted one: a nearly flat parabola, as at a
    rastrigin1 basin's inflection, puts its vertex in another basin. Costs
    2 or 3 ``rs``-fold evaluations per coordinate, none when ``h`` is 0.
    """
    lo, hi = fn.bounds
    h = min(math.sqrt(params.ga.sigma_m), (hi - lo) / 4)
    rs = params.rs_merge
    if h == 0:
        return np.empty((0, fn.dimension)), np.empty(0)
    seen_x, seen_y = [], []
    x = x.copy()
    for j in range(fn.dimension):
        if x[j] - h < lo:
            a, b = h, 2 * h
        elif x[j] + h > hi:
            a, b = -h, -2 * h
        else:
            a, b = -h, h
        probes = np.repeat(x[None, :], 2, axis=0)
        probes[:, j] += (a, b)
        fab = resample_many(fn, probes, rs, noise, rng, budget)
        seen_x.append(probes)
        seen_y.append(fab)
        # divided differences of the parabola through (0, fx), (a, fa), (b, fb)
        slope = (fab[0] - fx) / a
        curv = ((fab[1] - fx) / b - slope) / (b - a)
        if curv <= 0:
            continue
        step = x.copy()
        step[j] = np.clip(x[j] + a / 2 - slope / (2 * curv), lo, hi)
        fs = resample_many(fn, step[None, :], rs, noise, rng, budget)
        seen_x.append(step[None, :])
        seen_y.append(fs)
        t = step[j] - x[j]
        predicted = slope * t + curv * t * (t - a)
        if fs[0] - fx <= predicted / 2:
            x, fx = step, fs[0]
    return np.vstack(seen_x), np.concatenate(seen_y)


def initial_design(fn, noise, params, rng, budget):
    """Uniform design, its surrogate's minimizer and a coordinate sweep from
    there; returns all observations.

    Draws ``pop_size`` uniform points and, when the whole design fits in
    ``max_total_eval``, ``DESIGN_FACTOR * (2D + 2)`` more. One
    diagonal-quadratic surrogate is fitted on the resampled fitness of all
    of them, and its minimizer over the domain is evaluated as one more
    point. On a landscape with a global quadratic trend (a single big
    valley under local ripples) that minimizer lands in the global basin
    where no uniform sample does. ``_coordinate_sweep`` then moves each
    coordinate towards its minimum given the others, which the surrogate's
    trend averaged over the domain can miss: on rosenbrock the minimizer
    puts ``x_D`` at the bound and the sweep moves it to ``x_{D-1}^2``.
    Returns ``(genomes, values)`` of every evaluated point; the caller
    keeps the best ``pop_size``.
    """
    lo, hi = fn.bounds
    d = fn.dimension
    rs = params.rs_merge
    extra = DESIGN_FACTOR * (2 * d + 2)
    if (params.ga.pop_size + extra + 1 + 3 * d) * rs > params.max_total_eval:
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
    swept_x, swept_y = _coordinate_sweep(fn, best[0], best_val[0], noise, params, rng, budget)
    return (
        np.vstack([genomes, best, swept_x]),
        np.concatenate([vals, best_val, swept_y]),
    )


@_blas.one_thread()  # a fresh context per call: OpenBLAS on one thread
def run(fn, noise, params, rng):
    """Full switching loop until the evaluation budget is exhausted.

    The population starts as the best ``pop_size`` points of
    ``initial_design``. Per cycle: one main-population generation on
    resampled noisy fitness (mutation step ``sqrt(ga.sigma_m)``, absolute),
    dissolution into clusters, zero-cost regression-guided generations in
    the eligible clusters (``surrogate_generations``: up to ``t_switch``,
    as many as the model's leave-one-out fidelity earns, with the same
    absolute step), then merge with true resampling. Clusters live one
    cycle; ``self_organize`` builds them best-first and marks the eligible
    ones. Their archives are split from the switching step's observations:
    the population before the main generation (the initial design's best,
    or the last merge) and that generation's offspring. The returned
    best-ever solution is scored by the noiseless fitness, which
    ``resample_many`` computes anyway for every charged point and offers to
    ``Budget.best``. The run keeps OpenBLAS on one thread
    (``_blas.one_thread``), so parallel runs do not contend for cores.
    """
    rs = params.rs_merge
    budget = Budget(pop_size=params.ga.pop_size, total_it=0, rs=rs)

    design_x, design_y = initial_design(fn, noise, params, rng, budget)
    keep = np.argsort(design_y, kind="stable")[: params.ga.pop_size]
    pop = Population.new(design_x[keep], design_y[keep], sampled=True)

    trace = []
    n_elites = params.ga.n_elites
    main_cost = (params.ga.pop_size - n_elites) * rs
    # a merge over the cap gives no population and ends the run
    while pop is not None and budget.total_eval + main_cost <= params.max_total_eval:
        # main-population generation on resampled true fitness
        prev = pop
        pop = pop.evolve(
            params.ga,
            rng,
            fn.bounds,
            lambda xs: resample_many(fn, xs, rs, noise, rng, budget),
            sampled=True,
        )
        budget.skip(n_elites * rs)

        # the switching step's observations become the clusters' archives
        samples = (
            np.concatenate([prev.genomes, pop.genomes[n_elites:]]),
            np.concatenate([prev.fitness, pop.fitness[n_elites:]]),
        )
        clusters = self_organize(pop, fn, params, samples=samples)
        generations = [
            surrogate_generations(fit_surrogate(c, fn, params), params)
            if c.eligible else 0
            for c in clusters
        ]
        for g in range(params.t_switch):
            for c, n in zip(clusters, generations):
                if g < n:
                    evolve_pseudo(c, fn, params, rng)

        pop = merge_and_resample(clusters, fn, noise, rng, budget, params)
        trace.append(
            CycleRecord(
                len(trace),
                budget.total_eval,
                budget.best.best_fitness,
                len(clusters),
                sum(1 for c in clusters if c.eligible),
            )
        )

    return RunResult.from_budget(budget, trace)
