"""Distributed population switching engine.

One run starts from an initial design seeded with a global surrogate's
minimizer, then alternates between a main generation of the population,
evolved on resampled noisy fitness, and a switching step. The step fits one
regression surrogate on its observations (the population before the main
generation and that generation's offspring) and evolves the whole
population as one pseudo-population on the surrogate's estimates, at zero
evaluation cost, for as many generations (up to ``t_switch``) as the
model's leave-one-out fidelity earns. ``merge_and_resample`` then restores
true fitness by resampling all but the measured elites. ``run`` ends when
the next main generation or merge would overrun ``max_total_eval``
(``merge_and_resample`` then returns ``None``).

The paper splits the population into self-organized clusters, one
pseudo-population per region. At this package's defaults the initial
design starts every run inside one cluster radius, so ``run`` keeps one
pseudo-population; ``self_organize`` remains as the library's partition,
a cluster label per row and the seed row of each cluster. A population
is two arrays, ``genomes`` and ``fitness``, as in ``ga``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _blas, regression
from .ga import GaParams, evolve_generation
from .regression import ModelKind
from .stochastics import Budget, RunResult, check_budget, resample_many

__all__ = [
    "T_SWITCH_MAX",
    "LAMBDA_MAX",
    "DpseaParams",
    "self_organize",
    "adaptive_mutation_rate",
    "evolve_pseudo",
    "merge_and_resample",
    "initial_design",
    "run",
]


# most t_switch: surrogate generations cost no evaluation, so the budget
# does not bound them; at 100 (ten times the default) a 50-D step's
# surrogate phase took 9 ms, against 2 ms for a whole default step
T_SWITCH_MAX = 100

# most regression_lambda: a surrogate's n rows are standardized, so the
# intercept and each linear column z have a sum of squares of at most n, a
# squared column at most sum z^4 <= (sum z^2)^2 <= n^2, and every entry of
# the Gram matrix is at most n^2 (Cauchy-Schwarz off the diagonal). A float
# counts rows exactly up to n = 2^53, so at 2^53 * (2^53)^2 = 2^159 (7.3e47)
# the ridge exceeds every entry by the float resolution: lam + g rounds to
# lam, the slopes are A'y / lam, and a larger lam only shrinks them towards
# underflow. At 1e100 a 5-D rastrigin1 run underflowed in the fit under
# np.errstate(all="raise").
LAMBDA_MAX = 2.0**159


@dataclass(frozen=True)
class DpseaParams:
    ga: GaParams = field(default_factory=GaParams)
    # most surrogate generations per switching step; a step runs
    # round(t_switch * max(0, fidelity)) of them
    t_switch: int = 10
    rs_merge: int = 1
    max_total_eval: int = 90_000
    regression_lambda: float = 1e-6

    def __post_init__(self):
        if not 1 <= self.t_switch <= T_SWITCH_MAX:
            raise ValueError(f"t_switch must be in [1, {T_SWITCH_MAX}]")
        if not 0.0 <= self.regression_lambda <= LAMBDA_MAX:
            raise ValueError(f"regression_lambda must be in [0, {LAMBDA_MAX:.3g}]")
        check_budget(self.max_total_eval, self.ga.pop_size, self.rs_merge)


# extra uniform samples in the initial design, in units of the 2D + 2
# samples a diagonal-quadratic fit needs: at 40 the fit's minimizer had all
# 50 rastrigin1 coordinates in the global basin on each seed checked; at 20
# it missed one coordinate on some seeds
DESIGN_FACTOR = 40


def self_organize(genomes, fitness, fn, radius_fraction=0.1, max_clusters=10):
    """Partition a population into disjoint clusters, greedy best-first;
    returns ``(labels, seeds)``, the cluster of each row and the row of
    each cluster's seed.

    The best unassigned individual seeds a new cluster (up to
    ``max_clusters``) and captures every unassigned individual within
    ``radius_fraction`` of the domain diagonal; leftovers then join the
    nearest seed (ties to the lower seed index). Clusters are numbered best
    seed first; cluster ``k``'s members are ``np.flatnonzero(labels == k)``.
    """
    n = len(fitness)
    if n == 0 or max_clusters < 1 or not radius_fraction >= 0:
        raise ValueError("need a nonempty population, max_clusters >= 1 "
                         "and radius_fraction >= 0")
    radius = radius_fraction * (math.sqrt(fn.dimension) * (fn.upper_bound - fn.lower_bound))

    labels = np.full(n, -1)  # -1 unassigned
    order = np.argsort(fitness, kind="stable")
    seeds = []
    while len(seeds) < max_clusters:
        free = order[labels[order] < 0]
        if free.size == 0:
            break
        i = int(free[0])
        dist = np.linalg.norm(genomes - genomes[i], axis=1)
        labels[(labels < 0) & (dist <= radius)] = len(seeds)
        seeds.append(i)
    seeds = np.array(seeds)

    leftover = np.flatnonzero(labels < 0)
    if leftover.size:
        by_index = np.argsort(seeds)
        dists = np.linalg.norm(
            genomes[leftover][:, None, :] - genomes[seeds[by_index]][None, :, :],
            axis=2,
        )
        labels[leftover] = by_index[np.argmin(dists, axis=1)]
    return labels, seeds


# the population size at which adaptive_mutation_rate leaves the
# rank-scaled rate unscaled
S_MIN = 5


def adaptive_mutation_rate(params):
    """The ``(pop_size,)`` mutation rate of each fitness rank, increasing
    with rank and decreasing with the population's size ``n``.

    ``clip(p_m * (0.5 + r) * sqrt(S_MIN / n), 0.05, 1.0)`` with the rank
    fraction ``r = k / (n - 1)`` of rank ``k`` (best 0, worst 1; 0 at
    ``n = 1``).
    """
    n = params.ga.pop_size
    r = np.arange(n) / (n - 1) if n > 1 else np.zeros(1)
    rate = params.ga.p_m * (0.5 + r) * math.sqrt(S_MIN / n)
    return np.clip(rate, 0.05, 1.0)


def evolve_pseudo(genomes, fitness, model, rates, fn, params, rng, generations=1):
    """``generations`` (at least 1) surrogate generations of the population,
    in one ``evolve_generation`` call; returns its ``(genomes, fitness,
    source)``.

    Offspring are scored by ``model``; no true evaluation is made. ``rates``
    is the mutation rate of each fitness rank (``run`` takes it from
    ``adaptive_mutation_rate`` once per run); the rates set how many genes
    mutate, and the step itself is the absolute ``sqrt(ga.sigma_m)`` of
    ``GaParams``. Elitism keeps the best members by fitness, which mixes
    measured and estimated values. It is its own function so that a tracer
    that wraps module functions (``perfbench/tracing.py``) can tell the
    surrogate generations, called from here, from the main ones.
    """
    return evolve_generation(genomes, fitness, params.ga, rng, fn.bounds,
                             lambda xs: regression.predict_many(model, xs),
                             mutation_rates=rates, generations=generations)


def merge_and_resample(genomes, fitness, source, fn, noise, rng, budget, params,
                       known=None):
    """Refresh the population's fitness with true resampling, in place.

    Every row is scored by ``rs_merge``-fold resampled true fitness except
    the elites that the last GA call copied from an input row (``source >=
    0`` in what it returned), which keep their measured fitness and accrue
    ``total_unchanged``. ``known`` is given after a step with no surrogate
    generations, whose last GA call is the main generation: every elite is
    kept, and ``known`` is the true fitness that generation's
    ``resample_many`` computed for its offspring, rows ``n_elites:``. Those
    rows are then re-noised from it (``resample_many``'s ``known``), with
    the same charge and draws, and not evaluated again. Returns
    ``fitness``, or ``None`` when the scoring would overrun
    ``max_total_eval``, charging and drawing nothing.
    """
    rs = params.rs_merge
    if known is None:
        kept = np.zeros(len(fitness), dtype=bool)
        kept[: len(source)] = source >= 0
        to_eval = (~kept).nonzero()[0]
    else:
        to_eval = slice(len(source), None)
    xs = genomes[to_eval]
    if budget.total_eval + len(xs) * rs > params.max_total_eval:
        return None
    budget.skip((len(fitness) - len(xs)) * rs)
    fitness[to_eval] = resample_many(fn, xs, rs, noise, rng, budget, known=known)
    return fitness


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
    ``initial_design``. Per cycle: one main generation on resampled noisy
    fitness (mutation step ``sqrt(ga.sigma_m)``, absolute), then the
    switching step. It fits one surrogate (``regression.fit_rated``, the
    richest basis ``select_kind`` allows) on the step's observations: the
    population before the main generation (the initial design's best, or
    the last merge) and that generation's offspring. The population then
    runs ``round(t_switch * max(0, fidelity))`` zero-cost surrogate
    generations (one ``evolve_pseudo`` call if any, with the same absolute
    step), so a model that ranks unseen points no better than chance gets
    none. ``merge_and_resample`` rescores all but the elites that the last
    GA call copied from its (measured) input; after a step with no surrogate
    generations those are the main generation's offspring, re-noised from
    the true fitness their scoring computed, so a run computes each genome's
    true fitness once. Every cycle ends with
    ``budget.end_cycle(n_clusters=1, n_eligible=1)``: the whole population
    is the one pseudo-population, eligible for the step, and the record
    keeps those counts because perfbench's ``engine.clusters_mean`` and
    ``engine.eligible_mean`` read them. The returned best-ever solution is
    scored by the noiseless fitness, which ``resample_many`` computes
    anyway for every charged point and offers to ``Budget.offer``. The run
    keeps OpenBLAS on one thread (``_blas.one_thread``), so parallel runs
    do not contend for cores.
    """
    rs = params.rs_merge
    n = params.ga.pop_size
    budget = Budget(pop_size=n, total_it=0, rs=rs)

    design_x, design_y = initial_design(fn, noise, params, rng, budget)
    keep = np.argsort(design_y, kind="stable")[:n]
    genomes, fitness = design_x[keep], design_y[keep]
    rates = adaptive_mutation_rate(params)

    n_elites = params.ga.n_elites
    # the true fitness of the main generation's offspring, rows n_elites:
    offspring_true = np.empty(n - n_elites)
    main_cost = (n - n_elites) * rs
    # every step fits the n rows before the main generation and its offspring
    kind = regression.select_kind(2 * n - n_elites, fn.dimension)
    # a merge over the cap gives no fitness and ends the run
    while fitness is not None and budget.total_eval + main_cost <= params.max_total_eval:
        # main-population generation on resampled true fitness
        prev_genomes, prev_fitness = genomes, fitness
        genomes, fitness, source = evolve_generation(
            genomes, fitness, params.ga, rng, fn.bounds,
            lambda xs: resample_many(fn, xs, rs, noise, rng, budget,
                                     true_out=offspring_true))
        budget.skip(n_elites * rs)

        xs = np.concatenate([prev_genomes, genomes[n_elites:]])
        ys = np.concatenate([prev_fitness, fitness[n_elites:]])
        model, fidelity = regression.fit_rated(xs, ys, kind, params.regression_lambda)
        generations = round(params.t_switch * max(0.0, fidelity))
        if generations:
            genomes, fitness, source = evolve_pseudo(genomes, fitness, model, rates, fn,
                                                     params, rng, generations)

        fitness = merge_and_resample(genomes, fitness, source, fn, noise, rng, budget, params,
                                     None if generations else offspring_true)
        budget.end_cycle(n_clusters=1, n_eligible=1)

    return RunResult.from_budget(budget)
