"""How the local regression estimator sees a noisy fitness landscape.

Samples a small neighborhood of the 2-D sphere under heavy observation
noise, fits the reduced-basis models, and compares their predictions with
the noiseless truth. The diagonal-quadratic basis is exact for the sphere,
so with enough samples the surrogate all but removes the noise.
"""

import numpy as np

from dpsea.regression import ModelKind, fit, predict_many, select_kind


def rmse(a, b):
    return float(np.sqrt(np.mean((a - b) ** 2)))


def main():
    rng = np.random.default_rng(7)
    d = 2
    sigma = 2.0

    center = np.array([3.0, -1.0])
    xs = center + rng.uniform(-1.5, 1.5, (40, d))
    truth = np.sum(xs**2, axis=1)
    ys = truth + rng.normal(0.0, sigma, len(truth))

    print(f"40 samples around {center}, noise sigma = {sigma}")
    print(f"raw observation rmse vs truth: {rmse(ys, truth):.3f}")
    print()

    for kind in ModelKind:
        model = fit(xs, ys, kind, lam=1e-6)
        pred = predict_many(model, xs)
        print(f"{kind.value:<15} rmse {rmse(pred, truth):.3f}")

    print()
    print("basis choice scales with the sample count (D = 2):")
    for n in (3, 4, 5, 6, 12):
        print(f"  {n:>2} samples -> {select_kind(n, d, 1.0).value}")

    model = fit(xs, ys, ModelKind.DIAG_QUADRATIC, lam=1e-6)
    print()
    print("diagonal-quadratic coefficients (sphere truth is [0, 0, 0, 1, 1]):")
    print("  " + np.array2string(model.coefficients, precision=3))


if __name__ == "__main__":
    main()
