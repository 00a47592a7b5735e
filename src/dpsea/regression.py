"""Reduced-basis polynomial regression used to estimate fitness inside a
cluster of noisy samples.

Three model bases, chosen by how many samples are available: constant,
linear, and diagonal quadratic (intercept, per-coordinate linear and
squared terms; no cross terms). Fitting standardizes coordinates for
conditioning and applies a small ridge penalty to the non-intercept
coefficients so degenerate sample sets stay well-posed; stored
coefficients are mapped back to the original coordinates.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelKind",
    "RegressionModel",
    "select_kind",
    "design_matrix",
    "fit",
    "predict",
    "predict_many",
    "minimize",
    "loo_rank_correlation",
]


class ModelKind(enum.Enum):
    CONSTANT = "constant"
    LINEAR = "linear"
    DIAG_QUADRATIC = "diag_quadratic"


@dataclass(frozen=True)
class RegressionModel:
    """Fitted polynomial surrogate.

    ``coefficients`` are in original coordinates, laid out as
    ``[b0]``, ``[b0, b1..bD]`` or ``[b0, b1..bD, g1..gD]`` depending on
    ``kind``. ``center``/``scale`` record the standardization used during
    fitting (kept for inspection; prediction does not need them).
    """

    kind: ModelKind
    coefficients: np.ndarray
    lam: float
    center: np.ndarray
    scale: np.ndarray

    @property
    def dimension(self) -> int:
        return self.center.shape[0]


def select_kind(sample_count, d, quadratic_min_samples_factor):
    """Richest basis the sample count supports.

    Diagonal quadratic needs ``factor * (2D + 2)`` samples, linear needs
    ``D + 2``, anything less falls back to constant.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    if sample_count >= math.ceil(quadratic_min_samples_factor * (2 * d + 2)):
        return ModelKind.DIAG_QUADRATIC
    if sample_count >= d + 2:
        return ModelKind.LINEAR
    return ModelKind.CONSTANT


def _standardize(xs):
    """Coordinates centered on the sample mean and scaled by its spread
    (spread of a degenerate coordinate taken as 1)."""
    center = xs.mean(axis=0)
    scale = xs.std(axis=0)
    scale = np.where(scale == 0.0, 1.0, scale)
    return (xs - center) / scale, center, scale


def design_matrix(xs, kind):
    """The basis of ``kind`` evaluated on standardized ``xs``.

    Returns ``(a, center, scale)``: the ``(n, p)`` design matrix and the
    standardization used. ``fit`` and ``loo_rank_correlation`` compute it
    themselves unless given it as ``basis``, so a caller that needs both
    on one sample set computes it once.
    """
    z, center, scale = _standardize(np.asarray(xs, dtype=np.float64))
    n = z.shape[0]
    ones = np.ones((n, 1))
    if kind is ModelKind.CONSTANT:
        a = ones
    elif kind is ModelKind.LINEAR:
        a = np.hstack([ones, z])
    else:
        a = np.hstack([ones, z, z * z])
    return a, center, scale


def fit(xs, ys, kind, lam, *, basis=None):
    """Ridge least-squares fit of the chosen basis.

    Minimizes ``sum((y - model(x))^2) + lam * ||beta||^2`` with the
    intercept unpenalized, on coordinates standardized to the sample mean
    and spread (spread of a degenerate coordinate is taken as 1). Solved
    as an augmented least-squares problem, which stays stable for
    condition numbers well past 1e8 and any ``lam >= 0``. ``basis`` is
    ``design_matrix(xs, kind)`` when the caller already has it.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 2 or ys.ndim != 1 or xs.shape[0] != ys.shape[0]:
        raise ValueError("expected xs of shape (n, D) and ys of shape (n,)")
    if xs.shape[0] < 1:
        raise ValueError("samples must be nonempty")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("samples contain non-finite values")
    if lam < 0:
        raise ValueError("lam must be nonnegative")

    d = xs.shape[1]
    a, center, scale = design_matrix(xs, kind) if basis is None else basis
    p = a.shape[1]
    if lam > 0 and p > 1:
        pen = math.sqrt(lam) * np.eye(p)[1:]  # intercept row excluded
        a = np.vstack([a, pen])
        ys = np.concatenate([ys, np.zeros(p - 1)])
    beta, *_ = np.linalg.lstsq(a, ys, rcond=None)

    coef = _destandardize(beta, kind, center, scale, d)
    if not np.all(np.isfinite(coef)):
        raise ValueError("regression produced non-finite coefficients")
    return RegressionModel(kind, coef, float(lam), center, scale)


def loo_rank_correlation(xs, ys, kind, lam, *, basis=None):
    """Spearman correlation between leave-one-out predictions and ``ys``.

    Each sample is predicted by the same ridge fit as ``fit`` made on the
    other samples, in closed form from the hat matrix
    ``H = A (A'A + lam P)^-1 A'``: ``y_i - e_i / (1 - H_ii)``. It measures
    how well the basis ranks points it was not fitted on, which in-sample
    residuals hide when the sample count is close to the number of
    coefficients. A constant model predicts each left-out sample by the
    mean of the others, which ranks them exactly backwards (-1). Fewer
    than three samples, constant ``ys``, or a basis the samples do not
    determine (singular ``A'A`` at ``lam = 0``) give 0. ``basis`` is
    ``design_matrix(xs, kind)`` when the caller already has it.
    """
    ys = np.asarray(ys, dtype=np.float64)
    if ys.shape[0] < 3 or np.all(ys == ys[0]):
        return 0.0
    a = (design_matrix(xs, kind) if basis is None else basis)[0]
    pen = np.full(a.shape[1], float(lam))
    pen[0] = 0.0  # intercept unpenalized, as in ``fit``
    gram = a.T @ a + np.diag(pen)
    try:
        w = np.linalg.solve(np.linalg.cholesky(gram), a.T)  # H = w.T @ w
    except np.linalg.LinAlgError:
        return 0.0
    leverage = np.einsum("ij,ij->j", w, w)
    resid = ys - w.T @ (w @ ys)
    loo = ys - resid / np.maximum(1.0 - leverage, 1e-12)
    # stable ranks are a permutation of 0..n-1 (no ties), so Pearson on
    # them is exactly 1 - 6 sum(d^2) / (n (n^2 - 1))
    rank = lambda v: np.argsort(np.argsort(v, kind="stable"), kind="stable")
    d = rank(loo) - rank(ys)
    n = ys.shape[0]
    return 1.0 - 6.0 * float(d @ d) / (n * (n * n - 1))


def _destandardize(beta, kind, center, scale, d):
    """Map standardized-space coefficients back to original coordinates."""
    if kind is ModelKind.CONSTANT:
        return beta.copy()
    b0 = beta[0]
    bl = beta[1 : d + 1]
    if kind is ModelKind.LINEAR:
        lin = bl / scale
        return np.concatenate([[b0 - np.dot(lin, center)], lin])
    bq = beta[d + 1 :]
    quad = bq / (scale * scale)
    lin = bl / scale - 2.0 * quad * center
    const = b0 - np.dot(bl / scale, center) + np.dot(quad, center * center)
    return np.concatenate([[const], lin, quad])


def predict_many(model, xs):
    """Vectorized prediction over rows of ``xs``."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != model.dimension:
        raise ValueError(f"expected shape (n, {model.dimension}), got {xs.shape}")
    c = model.coefficients
    d = model.dimension
    out = np.full(xs.shape[0], c[0])
    if model.kind is not ModelKind.CONSTANT:
        out = out + xs @ c[1 : d + 1]
    if model.kind is ModelKind.DIAG_QUADRATIC:
        out = out + (xs * xs) @ c[d + 1 :]
    return out


def predict(model, x):
    """Model value at a single point; pure and deterministic."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.dimension:
        raise ValueError(f"expected a length-{model.dimension} vector, got shape {x.shape}")
    return float(predict_many(model, x[None, :])[0])


def minimize(model, lower, upper):
    """Minimizer of a diagonal-quadratic model over the box ``[lower, upper]^D``.

    The basis has no cross terms, so each coordinate is minimized on its
    own: at the vertex ``-b / (2 g)`` clipped to the box where the squared
    coefficient ``g`` is positive, otherwise at the bound with the lower
    model value (ties to ``lower``).
    """
    if model.kind is not ModelKind.DIAG_QUADRATIC:
        raise ValueError("minimize needs a diagonal-quadratic model")
    d = model.dimension
    lo = np.full(d, float(lower))
    hi = np.full(d, float(upper))
    lin = model.coefficients[1 : d + 1]
    quad = model.coefficients[d + 1 :]
    convex = quad > 0
    vertex = np.divide(-lin, 2.0 * quad, out=np.zeros(d), where=convex)
    ends = np.where(lin * lo + quad * lo * lo <= lin * hi + quad * hi * hi, lo, hi)
    return np.where(convex, np.clip(vertex, lo, hi), ends)
