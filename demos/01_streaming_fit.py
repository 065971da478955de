"""Stream a synthetic sample through the engine and watch the direction converge.

The engine warms up on a short initial batch, then absorbs one observation at
a time: each step updates the inverse covariance with a rank-one identity,
refreshes the slice means, and rebuilds the index direction without ever
touching the raw history again.  This script checks the streaming estimate
against a one-shot batch fit at a few checkpoints.
"""

import numpy as np

from streamsir import (
    Slicer,
    batch_sir,
    direction_distance,
    direction_path,
    draw,
    reference_model,
)


def main() -> None:
    model = reference_model(p=10)
    sample = draw(model, 2000, seed=42)
    checkpoints = (100, 250, 500, 1000, 2000)

    # The direction stage alone: the kernel estimate plays no part in it.
    path = direction_path(sample, checkpoints=checkpoints)

    print("True direction (unit norm):")
    print(" ", np.array2string(model.direction, precision=3))
    print()
    print(f"{'n':>6} {'distance to truth':>18}")
    for n in checkpoints:
        theta = path.snapshots[n]
        dist = direction_distance(theta, model.direction)
        print(f"{n:>6} {dist:>18.5f}")

    # The recursion is an exact identity: replaying the same rows as one
    # batch must land on the same (unnormalized) direction.
    slicer = Slicer(boundary=float(np.median(sample.responses[:30])))
    theta_batch = batch_sir(sample, slicer)
    gap = np.max(np.abs(path.sir.theta_hat - theta_batch)) / np.max(np.abs(theta_batch))
    print()
    print(f"Streaming vs batch direction, relative max gap: {gap:.2e}")
    print("(Exact in real arithmetic; anything below ~1e-8 is rounding noise.)")


if __name__ == "__main__":
    main()
