"""Run compact Monte Carlo studies of the estimator's convergence behavior.

Replications are seeded independently (replication r uses master_seed XOR r),
so results are bit-reproducible and independent of how they are scheduled.  This
script runs a small convergence table and a log-log rate fit; the full-scale
studies behind the test suite use the same code paths with more replications.
"""

import numpy as np

from streamsir import StudyConfig, convergence_study, rate_study, reference_model


def main() -> None:
    model = reference_model(p=10)

    config = StudyConfig(
        model=model,
        sizes=(200, 500, 1000, 2000),
        n_reps=30,
        alpha=0.35,
        seed=0,
        eval_points=np.array([0.0]),
    )
    result = convergence_study(config)

    print("Median absolute curve error at the center (30 replications):")
    print(f"{'n':>6} {'q25':>8} {'median':>8} {'q75':>8}")
    for n in config.sizes:
        block = result.summary["abs_error_quantiles"][str(n)]["0"]
        print(
            f"{n:>6} {block['q25']:>8.4f} {block['q50']:>8.4f} {block['q75']:>8.4f}"
        )

    dd = result.summary["direction_distance_quantiles"]
    print()
    print("Median direction distance by sample size:")
    print("  " + ", ".join(f"n={n}: {dd[str(n)]['q50']:.4f}" for n in config.sizes))

    rate = rate_study(config)
    block = rate.summary["slopes"]["0"]
    print()
    print(
        f"Log-log error slope at the center: {block['slope']:.3f} "
        f"(95% bootstrap [{block['slope_ci_low']:.3f}, {block['slope_ci_high']:.3f}])"
    )
    print(
        f"Dominant predicted exponent at alpha = {config.alpha}: "
        f"{rate.summary['reference_slope']:.2f}"
    )


if __name__ == "__main__":
    main()
