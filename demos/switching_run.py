"""One full DPSEA run on the noisy 5-D sphere, cycle by cycle.

Each cycle spends real evaluations on one main-population generation and
on re-scoring the population after the switching step, while the
in-between pseudo-population generations run for free on the step's
regression surrogate. The trace shows the best true fitness falling as the
budget is consumed.
"""

import numpy as np

from dpsea import DpseaParams, NoiseModel, RngState, make_function, run


def main():
    fn = make_function("sphere")
    noise = NoiseModel(0.0, 1.0)
    params = DpseaParams(max_total_eval=90_000)
    result = run(fn, noise, params, RngState(2024))

    print("cycle   evals   best true fitness")
    print("-" * 36)
    step = max(1, len(result.trace) // 15)
    for rec in result.trace[::step] + result.trace[-1:]:
        print(f"{rec.cycle:>5} {rec.total_eval:>8}   {rec.best_fitness:.6e}")

    print()
    print(f"final best true fitness: {result.best_fitness:.6e}")
    print(f"evaluations used:        {result.budget.total_eval}")
    print(f"evaluations skipped:     {result.budget.total_unchanged}")
    print(f"best genome:             {np.round(result.best_genome, 5)}")


if __name__ == "__main__":
    main()
