"""Benchmark test problems and their additive-Gaussian noise model.

Four classic minimization problems: 5-D sphere, 50-D Griewank (optimum
shifted to 100), 50-D Rastrigin variant with an additive constant, and
50-D Rosenbrock. Dimensions are configurable; bounds are uniform per
coordinate. Each landscape is written once, in ``evaluate_many``, and
``optimum`` evaluates it at the minimizer. ``NoiseModel`` describes
location-independent Gaussian noise; ``stochastics.resample_many`` applies it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FUNCTION_IDS",
    "BenchmarkFunction",
    "NoiseModel",
    "SIGMA_MAX",
    "make_function",
    "evaluate",
    "evaluate_many",
    "optimum",
]

# name -> (default dimension, lower bound, upper bound, minimizer coordinate)
_DEFAULTS = {
    "sphere": (5, -100.0, 100.0, 0.0),
    "griewank": (50, -600.0, 600.0, 100.0),
    "rastrigin1": (50, -5.12, 5.12, 0.0),
    "rosenbrock": (50, -50.0, 50.0, 1.0),
}

FUNCTION_IDS = tuple(_DEFAULTS)

# A noise draw is mu + sigma * z, and numpy's normal sampler never returns
# |z| above 12.23 (its ziggurat takes a tail draw 3.654 + x only if x * x <
# 2 * 53 * ln 2). With sigma * 12.3 at most the square root of the largest
# float, resample means and the surrogate's sums and products over noisy
# values stay finite; at sigma 1e306 the surrogate's coefficients overflowed.
# |mu| is held to the same bound: at mu 1e308 they overflowed too, and at
# mu = +-SIGMA_MAX runs of every algorithm stay finite, sigma 0 or SIGMA_MAX.
# So is rastrigin1's constant, another additive constant: at 1e308 DPSEA's
# surrogate coefficients overflowed.
SIGMA_MAX = float(np.sqrt(np.finfo(np.float64).max)) / 12.3


@dataclass(frozen=True)
class BenchmarkFunction:
    """A bound-constrained minimization problem. Only ``rastrigin1`` reads
    ``rastrigin_constant``; ``make_function``'s ``10 * D`` puts its minimum at 0."""

    name: str
    dimension: int
    lower_bound: float
    upper_bound: float
    rastrigin_constant: float = 0.0

    @property
    def bounds(self) -> tuple[float, float]:
        return (self.lower_bound, self.upper_bound)


@dataclass(frozen=True)
class NoiseModel:
    """Additive Gaussian disturbance N(mu, sigma^2) on the true fitness.

    Its bounds keep runs finite, not meaningful: a ``|mu|`` above about 1e16
    times the fitness absorbs it (at ``SIGMA_MAX``, sigma 0, a 6000-evaluation
    sphere run ends at 115.7 with every fidelity 0, against 1.9e-34 at mu 0)."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if not (abs(self.mu) <= SIGMA_MAX and 0 <= self.sigma <= SIGMA_MAX):
            raise ValueError("need finite noise, |mu| <= SIGMA_MAX and "
                             f"0 <= sigma <= SIGMA_MAX, got {self}")


def _defaults(name):
    if name not in _DEFAULTS:
        raise ValueError(f"unknown function id {name!r}; expected one of {FUNCTION_IDS}")
    return _DEFAULTS[name]


def make_function(name, dimension=None, rastrigin_constant=None):
    """Build a benchmark function by its lowercase string id.

    Dimensions default to the standard setup (sphere 5-D, the rest 50-D).
    A ``rastrigin1`` constant is an additive constant on the fitness, as
    ``NoiseModel``'s ``mu`` is, and has the same bound ``SIGMA_MAX``.
    """
    default_dim, lo, hi, _ = _defaults(name)
    dim = default_dim if dimension is None else int(dimension)
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    const = 0.0
    if name == "rastrigin1":
        const = 10.0 * dim if rastrigin_constant is None else float(rastrigin_constant)
        if not abs(const) <= SIGMA_MAX:
            raise ValueError(f"need |rastrigin_constant| <= SIGMA_MAX "
                             f"({SIGMA_MAX:.3g}), got {const}")
    return BenchmarkFunction(name, dim, lo, hi, const)


def evaluate_many(fn, xs):
    """Vectorized true fitness of a batch of points, shape (n, D) -> (n,)."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != fn.dimension:
        raise ValueError(
            f"expected shape (n, {fn.dimension}), got {xs.shape}"
        )
    if xs.size and (xs.min() < fn.lower_bound or xs.max() > fn.upper_bound):
        raise ValueError("coordinate outside function bounds")
    # row sums and products as the one ufunc reduction np.sum and np.prod
    # reduce to, bit for bit
    if fn.name == "sphere":
        return np.add.reduce(xs * xs, 1)
    if fn.name == "griewank":
        z = xs - 100.0
        s = np.add.reduce(z * z, 1) / 4000.0
        p = np.multiply.reduce(np.cos(z / np.sqrt(np.arange(1, fn.dimension + 1))), 1)
        return s - p + 1.0
    if fn.name == "rastrigin1":
        return fn.rastrigin_constant + np.add.reduce(
            xs * xs - 10.0 * np.cos(2.0 * np.pi * xs), 1
        )
    if fn.name == "rosenbrock":
        a = xs[:, :-1]
        b = xs[:, 1:]
        return np.add.reduce(100.0 * (b - a * a) ** 2 + (a - 1.0) ** 2, 1)
    raise ValueError(f"unknown function id {fn.name!r}")


def evaluate(fn, x):
    """True (noiseless) fitness of a single point. Pure and deterministic."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != fn.dimension:
        raise ValueError(f"expected a length-{fn.dimension} vector, got shape {x.shape}")
    return float(evaluate_many(fn, x[None, :])[0])


def optimum(fn):
    """Global minimizer, its ``_DEFAULTS`` coordinate in every dimension, and
    the minimum, ``evaluate`` there; ``ValueError`` if unknown or out of bounds."""
    x = np.full(fn.dimension, _defaults(fn.name)[3])
    return x, evaluate(fn, x)
