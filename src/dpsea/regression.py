"""Reduced-basis polynomial regression used to estimate fitness from a set
of noisy samples.

Three model bases, chosen by how many samples are available: constant,
linear, and diagonal quadratic (intercept, per-coordinate linear and
squared terms; no cross terms). Fitting standardizes coordinates for
conditioning and applies a small ridge penalty to the non-intercept
coefficients so degenerate sample sets stay well-posed. A model keeps the
standardized coefficients and maps them back to the original coordinates
on first use, so a model that is never read is never mapped.

Both fits solve the ridge normal equations on the standardized columns
through one Cholesky factor. Forming the Gram matrix squares the design's
condition number, which standardization and the ridge keep small; SVD least
squares runs only where the factorization fails, on a system the samples do
not determine.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelKind",
    "RegressionModel",
    "select_kind",
    "fit",
    "fit_rated",
    "predict_many",
    "minimize",
]


class ModelKind(enum.Enum):
    CONSTANT = "constant"
    LINEAR = "linear"
    DIAG_QUADRATIC = "diag_quadratic"


@dataclass(frozen=True)
class RegressionModel:
    """Fitted polynomial surrogate, kept as fitted.

    ``beta`` are the ridge coefficients of ``kind``'s basis on coordinates
    standardized as ``(x - center) / scale``. ``coefficients`` are the same
    polynomial in original coordinates, laid out as ``[b0]``,
    ``[b0, b1..bD]`` or ``[b0, b1..bD, g1..gD]`` depending on ``kind``, on
    ``dimension`` coordinates. They are mapped on first read and then kept;
    a mapping that is not finite raises ``ValueError`` at each read, so no
    prediction or minimization reads one.
    """

    kind: ModelKind
    beta: np.ndarray
    center: np.ndarray
    scale: np.ndarray

    @property
    def dimension(self):
        return self.center.shape[0]

    @functools.cached_property
    def coefficients(self):
        return _coefficients(self.kind, self.beta, self.center, self.scale)


def select_kind(sample_count, d):
    """Richest basis the sample count supports.

    Diagonal quadratic needs ``2D + 2`` samples, linear needs ``D + 2``,
    anything less falls back to constant.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    if sample_count >= 2 * d + 2:
        return ModelKind.DIAG_QUADRATIC
    if sample_count >= d + 2:
        return ModelKind.LINEAR
    return ModelKind.CONSTANT


def _design_matrix(xs, kind):
    """The basis of ``kind`` on ``xs`` standardized to the sample mean and
    spread (spread of a degenerate coordinate taken as 1).

    Returns ``(a, center, scale)``: the ``(n, p)`` design matrix and the
    standardization used. ``center`` and ``scale`` are ``xs.mean(axis=0)``
    and ``xs.std(axis=0)`` bit for bit: the one ``np.add`` reduction each
    of those reduces to, the latter over the deviations the design needs
    anyway.
    """
    n, d = xs.shape
    center = np.add.reduce(xs, 0) / n
    dev = xs - center
    scale = np.sqrt(np.add.reduce(dev * dev, 0) / n)
    scale[scale == 0.0] = 1.0
    linear = kind is not ModelKind.CONSTANT
    quadratic = kind is ModelKind.DIAG_QUADRATIC
    a = np.empty((n, 1 + d * linear + d * quadratic))
    a[:, 0] = 1.0
    if linear:
        # z is built contiguous and copied in: dividing straight into a's
        # strided columns took longer
        z = dev / scale
        a[:, 1 : d + 1] = z
        if quadratic:
            np.multiply(z, z, out=a[:, d + 1 :])
    return a, center, scale


def _checked(xs, ys, lam):
    """``xs`` and ``ys`` as float arrays, after checking shapes, values and ``lam``."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 2 or ys.ndim != 1 or xs.shape[0] != ys.shape[0]:
        raise ValueError("expected xs of shape (n, D) and ys of shape (n,)")
    if xs.shape[0] < 1:
        raise ValueError("samples must be nonempty")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("samples contain non-finite values")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return xs, ys


def fit(xs, ys, kind, lam):
    """Ridge least-squares fit of the chosen basis.

    Minimizes ``sum((y - model(x))^2) + lam * ||beta||^2`` with the
    intercept unpenalized, on coordinates standardized to the sample mean
    and spread (spread of a degenerate coordinate is taken as 1). Solved
    through the normal equations ``(A'A + lam P) beta = A'y`` on those
    standardized columns, with the Cholesky factor and its triangular
    inverse of ``fit_rated``; forming ``A'A`` squares the condition number
    of ``A``. Where the factorization fails (a system the samples do not
    determine, as on a degenerate sample set at ``lam = 0``) the
    coefficients come from ``_lstsq``. The model keeps them standardized;
    its ``coefficients`` are mapped, and checked finite, on first read.
    """
    xs, ys = _checked(xs, ys, lam)
    a, center, scale = _design_matrix(xs, kind)
    inv = _factor_inv(a, lam)
    if inv is None:
        return RegressionModel(kind, _lstsq(a, ys, lam), center, scale)
    return RegressionModel(kind, inv.T @ (inv @ (a.T @ ys)), center, scale)


def fit_rated(xs, ys, kind, lam):
    """The ridge fit of ``fit`` and its leave-one-out rank correlation.

    Returns ``(model, fidelity)`` from one Cholesky factor ``L`` of
    ``A'A + lam P`` (``P`` the identity with the intercept unpenalized) and
    its triangular inverse. With ``w = L^-1 A'`` the hat matrix is
    ``H = w'w``, the coefficients are ``(L^-1)' w y``, and each sample's
    leave-one-out prediction ``y_i - e_i / (1 - H_ii)`` is the fit on the other
    samples. ``fidelity`` is the Spearman correlation between those
    predictions and ``ys``. It measures how well the basis ranks points it
    was not fitted on, which in-sample residuals hide when the sample
    count is close to the number of coefficients. A constant model
    predicts each left-out sample by the mean of the others, which ranks
    them exactly backwards (-1). Fewer than three samples or constant
    ``ys`` give 0. A system the samples do not determine (the
    factorization fails, as on a degenerate sample set at ``lam = 0``) gives
    the least-squares model ``fit`` gives there and fidelity 0. The model is
    mapped to original coordinates on its first read, not here, so a caller
    that discards it on its fidelity never maps it.
    """
    xs, ys = _checked(xs, ys, lam)
    a, center, scale = _design_matrix(xs, kind)
    inv = _factor_inv(a, lam)
    if inv is None:
        return RegressionModel(kind, _lstsq(a, ys, lam), center, scale), 0.0
    w = inv @ a.T
    wy = w @ ys
    model = RegressionModel(kind, inv.T @ wy, center, scale)
    n = ys.shape[0]
    if n < 3 or (ys == ys[0]).all():
        return model, 0.0
    leverage = np.einsum("ij,ij->j", w, w)
    loo = ys - (ys - w.T @ wy) / np.maximum(1.0 - leverage, 1e-12)
    # stable ranks are a permutation of 0..n-1 (no ties), so Pearson on
    # them is exactly 1 - 6 sum(d^2) / (n (n^2 - 1))
    ranks = np.arange(n)
    d = np.empty(n, dtype=np.intp)
    d[loo.argsort(kind="stable")] = ranks
    d[ys.argsort(kind="stable")] -= ranks
    return model, 1.0 - 6.0 * float(d @ d) / (n * (n * n - 1))


def _factor_inv(a, lam):
    """``L^-1`` for the Cholesky factor ``L`` of ``A'A + lam P``, or ``None``
    where the factorization fails."""
    p = a.shape[1]
    gram = a.T @ a
    gram.flat[p + 1 :: p + 1] += lam  # the diagonal but the intercept's
    try:
        return _tril_inv(np.linalg.cholesky(gram))
    except np.linalg.LinAlgError:
        return None


def _lstsq(a, ys, lam):
    """The ridge coefficients by SVD least squares on ``A`` stacked over
    ``sqrt(lam)`` times the identity's non-intercept rows: the solve for a
    system whose normal equations have no Cholesky factor."""
    p = a.shape[1]
    if lam > 0 and p > 1:
        a = np.vstack([a, math.sqrt(lam) * np.eye(p)[1:]])
        ys = np.concatenate([ys, np.zeros(p - 1)])
    return np.linalg.lstsq(a, ys, rcond=None)[0]


def _tril_inv(low):
    """Inverse of the lower-triangular ``low``, by halves.

    ``[[A, 0], [C, B]]`` has the inverse ``[[A^-1, 0], [-B^-1 C A^-1,
    B^-1]]``; the diagonal blocks recurse. ``np.linalg.inv`` (an LU solve
    against the identity, blind to the triangle) inverts every block of
    at most 32 columns, so a factor that small is inverted by it alone.
    """
    p = low.shape[0]
    if p <= 32:
        return np.linalg.inv(low)
    h = p // 2
    out = np.zeros_like(low)
    out[:h, :h] = _tril_inv(low[:h, :h])
    out[h:, h:] = _tril_inv(low[h:, h:])
    out[h:, :h] = -(out[h:, h:] @ low[h:, :h] @ out[:h, :h])
    return out


def _coefficients(kind, beta, center, scale):
    """Standardized-space coefficients ``beta`` mapped back to original
    coordinates, written into one array in ``coefficients``' layout."""
    d = center.shape[0]
    if kind is ModelKind.CONSTANT:
        coef = beta.copy()
    elif kind is ModelKind.LINEAR:
        coef = np.empty(d + 1)
        lin = np.divide(beta[1:], scale, out=coef[1:])
        coef[0] = beta[0] - np.dot(lin, center)
    else:
        coef = np.empty(2 * d + 1)
        bl = beta[1 : d + 1] / scale
        quad = np.divide(beta[d + 1 :], scale * scale, out=coef[d + 1 :])
        np.subtract(bl, 2.0 * quad * center, out=coef[1 : d + 1])
        coef[0] = beta[0] - np.dot(bl, center) + np.dot(quad, center * center)
    if not np.isfinite(coef).all():
        raise ValueError("regression produced non-finite coefficients")
    return coef


def predict_many(model, xs):
    """Vectorized prediction over rows of ``xs``, from the model's
    ``coefficients`` (mapped on the model's first read, which raises
    ``ValueError`` if they are not finite)."""
    xs = np.asarray(xs, dtype=np.float64)
    d = model.dimension
    if xs.ndim != 2 or xs.shape[1] != d:
        raise ValueError(f"expected shape (n, {d}), got {xs.shape}")
    c = model.coefficients
    if model.kind is ModelKind.CONSTANT:
        return np.full(xs.shape[0], c[0])
    out = xs @ c[1 : d + 1] + c[0]
    if model.kind is ModelKind.DIAG_QUADRATIC:
        out += (xs * xs) @ c[d + 1 :]
    return out


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
