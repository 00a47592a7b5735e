"""Real-coded GA generational step shared by the canonical-GA baseline and
the switching engine: elitism, binary tournament, whole-arithmetic
crossover and Gaussian mutation, all drawn for a whole generation at once.

A population is held as arrays, one row per individual (``Population``).
An individual whose fitness came from an actual (resampled) evaluation has
``sampled`` set; elites copied without re-evaluation have ``unchanged`` set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Population", "GaParams", "evolve_generation"]


@dataclass(frozen=True)
class GaParams:
    """Operator settings shared by the canonical GA and DPSEA.

    Mutation adds N(0, sigma_m) to each gene with probability ``p_m``: the
    step is an absolute standard deviation ``sqrt(sigma_m)`` (0.1 by
    default), the same on every function whatever its domain width. On
    50-D griewank (+-600) that is about 1e-4 of the domain, which is why
    DPSEA starts from a surrogate-guided initial design (see
    ``engine.initial_design``) rather than relying on mutation to cross it.
    """

    pop_size: int = 100
    p_c: float = 1.0
    p_m: float = 0.3
    n_elites: int = 10
    sigma_m: float = 0.01  # mutation variance; draws use std sqrt(sigma_m)

    def __post_init__(self):
        if self.pop_size < 1:
            raise ValueError("pop_size must be positive")
        if not 0.0 <= self.p_c <= 1.0:
            raise ValueError("p_c must be in [0, 1]")
        if not 0.0 <= self.p_m <= 1.0:
            raise ValueError("p_m must be in [0, 1]")
        if not 0 <= self.n_elites < self.pop_size:
            raise ValueError("n_elites must satisfy 0 <= n_elites < pop_size")
        if not 0.0 <= self.sigma_m < math.inf:
            raise ValueError("sigma_m must be finite and nonnegative")


@dataclass
class Population:
    """Individuals as arrays, one row each.

    ``genomes`` is ``(n, D)``; ``fitness`` holds each individual's latest
    fitness, measured where ``sampled`` is set and a surrogate's estimate
    elsewhere; ``unchanged`` marks elites copied without re-evaluation.
    """

    genomes: np.ndarray
    fitness: np.ndarray
    sampled: np.ndarray
    unchanged: np.ndarray

    @classmethod
    def new(cls, genomes, fitness, sampled):
        """Fresh individuals, none of them elites."""
        n = len(genomes)
        return cls(genomes, fitness, np.full(n, sampled), np.zeros(n, dtype=bool))

    @classmethod
    def concat(cls, parts):
        return cls(*(np.concatenate([getattr(p, f) for p in parts]) for f in _FIELDS))

    def __len__(self):
        return len(self.fitness)

    def take(self, rows):
        """The individuals at ``rows``, as copies."""
        return Population(*(getattr(self, f)[rows] for f in _FIELDS))

    @property
    def exempt(self):
        """Elites unchanged since their last actual evaluation: a merge
        keeps their fitness instead of resampling it."""
        return self.unchanged & self.sampled

    def evolve(self, params, rng, bounds, score, *, sampled, mutation_rates=None):
        """The next generation by ``evolve_generation``.

        Elites keep their ``sampled`` flag and are marked ``unchanged``;
        offspring are marked ``sampled`` as given.
        """
        genomes, fitness, elites = evolve_generation(
            self.genomes, self.fitness, params, rng, bounds, score,
            mutation_rates=mutation_rates,
        )
        n_off = len(fitness) - len(elites)
        return Population(
            genomes,
            fitness,
            np.concatenate([self.sampled[elites], np.full(n_off, sampled)]),
            np.arange(len(fitness)) < len(elites),
        )


_FIELDS = ("genomes", "fitness", "sampled", "unchanged")


def evolve_generation(
    genomes, fitness, params, rng, bounds, score, *, mutation_rates=None
):
    """One generational step: elitism, then tournament -> crossover -> mutation.

    ``genomes`` is ``(pop_size, D)`` and ``fitness`` its ``(pop_size,)``
    values. The top ``n_elites`` rows by fitness are copied verbatim, fitness
    kept; the remaining rows are offspring from binary tournaments (ties to
    the lower row), whole-arithmetic crossover and Gaussian mutation, scored
    in one call ``score(children)`` on their ``(n_off, D)`` genomes.
    ``mutation_rates`` optionally gives a mutation rate per fitness rank:
    ``mutation_rates[k]`` belongs to the row ranked ``k`` by the stable sort
    of ``fitness`` (0 the best), and each child of a pair takes the rate of
    the parent in its slot. Without it every offspring mutates at ``p_m``.
    Draws, in order: tournaments, crossover uniforms, a mask uniform per
    offspring gene, then one N(0, sigma_m) step per mutated gene, row-major.

    Returns ``(genomes, fitness, elites)``: the new generation, elites first,
    and the input rows the elites were copied from.
    """
    n = len(fitness)
    if n != params.pop_size:
        raise ValueError(f"expected population of size {params.pop_size}, got {n}")
    order = np.argsort(fitness, kind="stable")
    elites = order[: params.n_elites]

    n_off = n - params.n_elites
    n_pairs = (n_off + 1) // 2

    # binary tournaments: (pair, parent slot, draw)
    draws = rng.integers(0, n, (n_pairs, 2, 2))
    a, b = draws[..., 0], draws[..., 1]
    a_wins = (fitness[a] < fitness[b]) | ((fitness[a] == fitness[b]) & (a < b))
    parents = np.where(a_wins, a, b)  # (n_pairs, 2)

    u_cross = rng.uniform(size=n_pairs)
    alphas = rng.uniform(size=n_pairs)
    d = genomes.shape[1]
    pa = genomes[parents[:, 0]]
    pb = genomes[parents[:, 1]]
    al = alphas[:, None]
    bl = 1 - al
    crossed = u_cross[:, None] < params.p_c
    pairs = np.empty((n_pairs, 2, d))
    pairs[:, 0] = np.where(crossed, al * pa + bl * pb, pa)
    pairs[:, 1] = np.where(crossed, bl * pa + al * pb, pb)
    children = pairs.reshape(2 * n_pairs, d)[:n_off]
    child_parents = parents.reshape(-1)[:n_off]

    if mutation_rates is None:
        rates = params.p_m
    else:
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        rates = np.asarray(mutation_rates, dtype=np.float64)[rank[child_parents], None]

    mask = rng.uniform(size=(n_off, d)) < rates
    if params.sigma_m > 0:
        children[mask] += rng.normal(0.0, math.sqrt(params.sigma_m), mask.sum())
    np.clip(children, bounds[0], bounds[1], out=children)

    scores = np.asarray(score(children), dtype=np.float64)
    return (
        np.concatenate([genomes[elites], children]),
        np.concatenate([fitness[elites], scores]),
        elites,
    )
