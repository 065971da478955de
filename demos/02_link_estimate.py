"""Estimate the link function from a stream and compare it to the truth.

While the direction estimate evolves, every incoming observation is logged as
(projection under the current direction, response).  The kernel regression
over that log uses a shrinking per-arrival bandwidth h_k = k^(-alpha), so
early noisy projections are smoothed broadly and later accurate ones sharply.

The index direction is only identified up to scale (including sign), so the
curve alone is a coordinate-dependent object: what converges is the
composition — evaluate the fitted curve at a point's *estimated* projection
and compare against the true link at its *true* projection.
"""

import numpy as np

from streamsir import curve, draw, draw_eval_points, evaluate, reference_model, run_stream


def main() -> None:
    model = reference_model(p=10)
    sample = draw(model, 2000, seed=7)
    state = run_stream(sample, alpha=0.35)
    log = state.log

    points = draw_eval_points(model, 8)
    u_true = points @ model.direction
    u_hat = points @ state.theta_hat
    # One read of the log at every estimated projection; NaN where no
    # entry's kernel window covers the point.
    est, _, _ = curve(log.kernel, u_hat, log.projections, log.bandwidths, log.responses)

    print("Composite estimate at held-out covariate points (n = 2000):")
    print(f"{'true proj':>10} {'est proj':>10} {'estimate':>10} {'truth':>10} {'|error|':>9}")
    for ut, uh, e in sorted(zip(u_true, u_hat, est)):
        truth = float(model.link(np.array([ut]))[0])
        if np.isnan(e):
            print(f"{ut:>10.3f} {uh:>10.3f} {'--':>10} {truth:>10.4f}   (no kernel support)")
        else:
            print(f"{ut:>10.3f} {uh:>10.3f} {e:>10.4f} {truth:>10.4f} {abs(e - truth):>9.4f}")

    # The fitted curve on a fixed grid (what `streamsir fit` writes) is the
    # same sums read at many points: each value equals evaluate bit for bit.
    grid = np.linspace(-2.0, 2.0, 41)
    grid_est, _, _ = curve(log.kernel, grid, log.projections, log.bandwidths, log.responses)
    mid = int(np.argmin(np.abs(grid)))
    direct = evaluate(log, float(grid[mid]))
    print()
    print(
        f"Curve at x={grid[mid]:.2f}: {grid_est[mid]:.6f}; direct evaluation of the log: "
        f"{direct:.6f} (identical: {grid_est[mid] == direct})"
    )


if __name__ == "__main__":
    main()
