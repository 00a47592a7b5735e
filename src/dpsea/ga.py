"""Real-coded GA generational steps shared by the canonical-GA baseline and
the switching engine: elitism, binary tournament, whole-arithmetic
crossover and Gaussian mutation, each drawn for a whole generation at once.
One call runs one generation (the main population, the cGA) or all of a
switching step's surrogate generations.

A population is two arrays, ``genomes`` (one row per individual) and
``fitness``. Each call also returns the input row each elite was copied
from, which tells the switching engine's merge what is still measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["GaParams", "evolve_generation"]


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


def evolve_generation(
    genomes, fitness, params, rng, bounds, score, *, mutation_rates=None,
    generations=1,
):
    """``generations`` generational steps, each elitism, then tournament ->
    crossover -> mutation.

    ``genomes`` is ``(pop_size, D)`` and ``fitness`` its ``(pop_size,)``
    values. Per step, the top ``n_elites`` rows by the stable sort of fitness
    are copied verbatim, fitness kept; the remaining rows are offspring from
    binary tournaments (the lower rank wins, so ties go to the lower row),
    whole-arithmetic crossover and Gaussian mutation, scored in one call
    ``score(children)`` on their ``(n_off, D)`` genomes. ``mutation_rates``
    optionally gives a mutation rate per fitness rank: ``mutation_rates[k]``
    belongs to the row ranked ``k`` by the stable sort (0 the best), and each
    child of a pair takes the rate of the parent in its slot. Without it
    every offspring mutates at ``p_m``. Draws per step, in order: tournaments
    (``integers``), crossover uniforms and alphas (two ``random``), a mask
    ``random`` per offspring gene, then one N(0, sigma_m) step per mutated
    gene, row-major (one ``normal``, none at ``sigma_m = 0``). A call with
    ``generations=k`` makes exactly the draws, and gives exactly the bits,
    of k calls with ``generations=1``, each fed the last one's output.

    Returns ``(genomes, fitness, source)``: the last generation, elites
    first, and for each of its elites the input row it was copied from, or
    -1 for an elite born inside the call.
    """
    n = len(fitness)
    if n != params.pop_size:
        raise ValueError(f"expected population of size {params.pop_size}, got {n}")
    if generations < 1:
        raise ValueError(f"generations must be >= 1, got {generations}")
    n_elites = params.n_elites
    n_off = n - n_elites
    n_pairs = (n_off + 1) // 2
    d = genomes.shape[1]
    step = math.sqrt(params.sigma_m)
    rates = None if mutation_rates is None else np.asarray(mutation_rates, dtype=np.float64)

    # buffers for the whole call; children are the first n_off rows of pairs
    out_genomes = np.empty((n, d))
    out_fitness = np.empty(n)
    pairs = np.empty((n_pairs, 2, d))
    other = np.empty((n_pairs, 2, d))
    children = pairs.reshape(2 * n_pairs, d)[:n_off]
    flat_children = pairs.reshape(-1)[: n_off * d]
    rank = np.empty(n, dtype=np.intp)
    ranks = np.arange(n)
    source = np.arange(n)

    for _ in range(generations):
        order = np.argsort(fitness, kind="stable")
        rank[order] = ranks
        elites = order[:n_elites]

        # binary tournaments: (pair, parent slot, draw); the lower rank wins
        draws = rng.integers(0, n, (n_pairs, 2, 2))
        won = rank[draws].min(axis=-1)  # (n_pairs, 2)
        parents = genomes[order[won]]

        u_cross = rng.random(n_pairs)
        alphas = rng.random(n_pairs)[:, None, None]
        # slot 0 gets al*pa + bl*pb and slot 1 al*pb + bl*pa (= bl*pa + al*pb)
        np.multiply(alphas, parents, out=pairs)
        np.multiply(1 - alphas, parents[:, ::-1], out=other)
        pairs += other
        uncrossed = u_cross >= params.p_c
        if uncrossed.any():
            pairs[uncrossed] = parents[uncrossed]

        mask_u = rng.random((n_off, d))
        if params.sigma_m > 0:
            child_rates = params.p_m if rates is None else rates[won.reshape(-1)[:n_off], None]
            mutated = np.flatnonzero(mask_u < child_rates)
            flat_children[mutated] += rng.normal(0.0, step, mutated.size)
        np.maximum(children, bounds[0], out=children)
        np.minimum(children, bounds[1], out=children)

        scores = score(children)
        # the elites' rows are read before any row of out_genomes is written
        out_genomes[:n_elites] = genomes[elites]
        out_genomes[n_elites:] = children
        out_fitness[:n_elites] = fitness[elites]
        out_fitness[n_elites:] = scores
        source[:n_elites] = source[elites]
        source[n_elites:] = -1
        genomes, fitness = out_genomes, out_fitness

    return genomes, fitness, source[:n_elites]
