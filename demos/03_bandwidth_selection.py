"""Score a grid of bandwidth exponents by streaming cross-validation.

Each candidate alpha replays the stream once.  After the warm-up, every
observation is first predicted from the log built so far, then absorbed;
the score is the sum of squared one-step-ahead prediction errors.  This
choreography never peeks forward, so the score is an honest streaming
prediction loss.
"""

from streamsir import draw, reference_model, select_alpha


def main() -> None:
    model = reference_model(p=10)
    sample = draw(model, 1000, seed=3)
    grid = [round(0.10 + 0.05 * k, 10) for k in range(1, 10)]

    report = select_alpha(sample, grid)

    print("One-step-ahead squared-error profile (n = 1000):")
    print(f"{'alpha':>6} {'score':>12} {'skipped':>8}")
    for a, s, sk in zip(report.grid, report.scores, report.skipped):
        marker = "  <-- argmin" if a == report.argmin_alpha else ""
        print(f"{a:>6.2f} {s:>12.2f} {sk:>8}{marker}")

    print()
    print(
        f"Selected exponent: {report.argmin_alpha:.2f} "
        f"(counted {report.counted[report.argmin_index]} predictions "
        f"after a warm-up of {report.warmup_n})"
    )
    print(
        "Note: the profile is shallow at this sample size; nearby exponents "
        "score within a fraction of a percent of each other."
    )


if __name__ == "__main__":
    main()
