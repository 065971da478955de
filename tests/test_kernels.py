import numpy as np
import pytest
from scipy import integrate

from streamsir import BandwidthSchedule, epanechnikov, tabulated_kernel


def _epan(x):
    return 0.75 * (1.0 - x * x) if abs(x) <= 1.0 else 0.0


def test_eval_at_center():
    assert epanechnikov().eval(0.0) == 0.75


def test_eval_at_and_past_the_support_edge():
    k = epanechnikov()
    assert k.eval(1.0) == 0.0
    assert k.eval(-1.0) == 0.0
    assert k.eval(1.5) == 0.0
    assert k.eval(-7.0) == 0.0


def test_eval_vectorized_and_symmetric():
    k = epanechnikov()
    x = np.linspace(-2.0, 2.0, 41)
    out = k.eval(x)
    assert out.shape == x.shape
    assert np.array_equal(out, k.eval(-x))
    assert np.all(out >= 0.0)


def test_eval_equals_the_masked_parabola_bit_for_bit():
    # The masked form np.where(|u| <= 1, 0.75 (1 - u^2), 0) is the
    # reference; eval must give its bits, signed zeros included, on uniform
    # points, at +-1 and their neighbours, and at NaN and +-inf.
    edges = np.array([1.0, -1.0, 0.0, -0.0, np.nan, np.inf, -np.inf])
    steps = [(e, t) for e in (1.0, -1.0) for t in (-np.inf, np.inf)]
    near = np.array(
        [np.nextafter(e, t) for e, t in steps]
        + [np.nextafter(np.nextafter(e, t), t) for e, t in steps]
    )
    u = np.concatenate((np.random.default_rng(3).uniform(-1.5, 1.5, 10**6), edges, near))
    want = np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)
    got = epanechnikov().eval(u)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for x in np.concatenate((edges, near)).tolist():
        one = epanechnikov().eval(x)
        assert type(one) is float, x
        assert np.float64(one).tobytes() == np.float64(_epan(x)).tobytes(), x


def test_constants_against_quadrature():
    # Oracles first: adaptive quadrature of K^2 and x^2 K over the support.
    k = epanechnikov()
    nu2_oracle, _ = integrate.quad(lambda x: _epan(x) ** 2, -1.0, 1.0)
    tau2_oracle, _ = integrate.quad(lambda x: 0.5 * x * x * _epan(x), -1.0, 1.0)
    mass, _ = integrate.quad(_epan, -1.0, 1.0)
    assert abs(k.nu2 - nu2_oracle) <= 1e-9
    assert abs(k.tau2 - tau2_oracle) <= 1e-9
    assert abs(mass - 1.0) <= 1e-6
    assert k.nu2 == 0.6
    assert k.tau2 == 0.1
    assert k.support_radius == 1.0


def test_tabulated_kernel_reproduces_closed_forms():
    xs = np.linspace(-1.0, 1.0, 4001)
    k = tabulated_kernel(xs, 0.75 * (1.0 - xs * xs))
    assert k.support_radius == 1.0
    assert abs(k.nu2 - 0.6) <= 1e-6
    assert abs(k.tau2 - 0.1) <= 1e-6
    assert k.eval(0.0) == pytest.approx(0.75, abs=1e-9)
    assert k.eval(2.0) == 0.0


def test_tabulated_kernel_validation():
    xs = np.linspace(-1.0, 1.0, 101)
    vals = 0.75 * (1.0 - xs * xs)
    with pytest.raises(ValueError, match="length >= 3"):
        tabulated_kernel(np.array([-1.0, 1.0]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError, match="strictly increasing"):
        tabulated_kernel(xs[::-1], vals)
    with pytest.raises(ValueError, match="non-negative"):
        tabulated_kernel(xs, vals - 0.5)
    with pytest.raises(ValueError, match="zero at both ends"):
        tabulated_kernel(xs, vals + 0.1)
    asym = vals.copy()
    asym[10] += 0.01
    with pytest.raises(ValueError, match="asymmetric"):
        tabulated_kernel(xs, asym)
    with pytest.raises(ValueError, match="mass"):
        tabulated_kernel(xs, 1.25 * vals)


@pytest.mark.parametrize(
    "xs, values",
    [
        ([-1.0, 0.0, 1.0], [0.0, np.nan, 0.0]),
        ([-1.0, 0.0, 1.0], [0.0, np.inf, 0.0]),
        ([-np.inf, 0.0, 1.0], [0.0, 1.0, 0.0]),
        ([-1.0, 0.0, np.inf], [0.0, 1.0, 0.0]),
    ],
    ids=["nan-value", "inf-value", "-inf-abscissa", "inf-abscissa"],
)
def test_tabulated_kernel_refuses_non_finite_entries(xs, values):
    with pytest.raises(ValueError, match="must be finite"):
        tabulated_kernel(np.array(xs), np.array(values))


def test_schedule_rejects_bad_exponents():
    for alpha in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            BandwidthSchedule(alpha=alpha)


def test_schedule_monotonicity():
    sched = BandwidthSchedule(alpha=0.35)
    k = np.arange(1, 1001)
    h = sched.h(k)
    assert sched.h(1) == 1.0
    assert np.all(np.diff(h) < 0.0)
    # n h_n = n^(1 - alpha) must still diverge for alpha < 1.
    assert np.all(np.diff(k * h) > 0.0)


def test_schedule_scalar_matches_vectorized():
    sched = BandwidthSchedule(alpha=0.6)
    ks = np.array([1, 2, 50])
    vec = sched.h(ks)
    for i, k in enumerate(ks):
        assert vec[i] == sched.h(int(k))
