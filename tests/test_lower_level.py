import math

import numpy as np
import pytest

from fedrelay.lower_level import (
    accuracy_vector,
    best_response_demand,
    owner_utility,
    price_floor,
)
from support import accuracy, exp_series, grid_argmax_demand, make_scenario


def test_accuracy_at_zero_and_limit(paper9_scen):
    n = paper9_scen.n_devices
    at_zero = accuracy_vector(np.zeros(n), paper9_scen)
    at_limit = accuracy_vector(np.full(n, 1e6), paper9_scen)
    for i, d in enumerate(paper9_scen.devices):
        assert at_zero[i] == pytest.approx(d.accuracy.a - d.accuracy.b)
        assert at_limit[i] == pytest.approx(d.accuracy.a)


def test_accuracy_known_value(paper9_scen):
    # device 1 at s = 0.1: 9.78 * (1 - exp(-15.28 * 0.1))
    got = accuracy_vector(np.full(paper9_scen.n_devices, 0.1), paper9_scen)[0]
    assert got == pytest.approx(7.658041497734059, rel=1e-12)
    series = 9.78 - 9.78 * exp_series(-1.528)
    assert got == pytest.approx(series, rel=1e-12)


def test_accuracy_increasing_concave(paper9_scen):
    s = np.linspace(0.0, 1.0, 200)
    n = paper9_scen.n_devices
    vals = np.array([accuracy_vector(np.full(n, x), paper9_scen)[0] for x in s])
    assert np.all(np.diff(vals) > 0)
    assert np.all(np.diff(vals, 2) < 0)


def test_owner_utility_at_zero(paper9_scen):
    n = paper9_scen.n_devices
    q = np.full(n, 1.0)
    # the benchmark sets a = b, so zero data is worth exactly zero
    assert owner_utility(np.zeros(n), q, paper9_scen) == 0.0
    scen = make_scenario([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], a=12.0, b=10.0)
    assert owner_utility(np.zeros(2), np.ones(2), scen) == pytest.approx(4.0)


def test_owner_utility_matches_termwise_oracle(paper9_scen, rng):
    n = paper9_scen.n_devices
    for _ in range(20):
        s = rng.uniform(0.0, 1.0, size=n)
        q = rng.uniform(0.1, 50.0, size=n)
        want = sum(
            accuracy(i, s[i], paper9_scen) - q[i] * s[i] for i in range(n)
        )
        assert owner_utility(s, q, paper9_scen) == pytest.approx(want, rel=1e-12)


def test_owner_utility_rejects_shape_mismatch(paper9_scen):
    with pytest.raises(ValueError):
        owner_utility(np.zeros(3), np.ones(2), paper9_scen)


def test_demand_closed_form_points(paper9_scen):
    _, b, c = paper9_scen.accuracy_coeffs()
    s = best_response_demand(c * b, paper9_scen)
    assert np.allclose(s, 0.0, atol=1e-15)
    s = best_response_demand(c * b / math.e, paper9_scen)
    assert np.allclose(s, 1.0 / c, rtol=1e-14)


def test_demand_rejects_nonpositive_price(paper9_scen):
    q = np.full(paper9_scen.n_devices, 1.0)
    q[3] = 0.0
    with pytest.raises(ValueError):
        best_response_demand(q, paper9_scen)


def test_demand_clamps_to_bounds(paper9_scen):
    n = paper9_scen.n_devices
    tiny = np.full(n, price_floor(paper9_scen) / 100.0)
    s = best_response_demand(tiny, paper9_scen)
    assert np.all(s <= paper9_scen.param("s_max") + 1e-15)
    huge = np.full(n, 1e9)
    assert np.all(best_response_demand(huge, paper9_scen) == 0.0)


def test_demand_matches_grid_oracle(paper9_scen):
    q = np.full(paper9_scen.n_devices, 10.0)
    s = best_response_demand(q, paper9_scen)
    want = grid_argmax_demand(0, 10.0, paper9_scen)
    assert abs(s[0] - want) <= 1e-5


def test_demand_first_order_residual(paper9_scen, rng):
    _, b, c = paper9_scen.accuracy_coeffs()
    q_lo = price_floor(paper9_scen)
    for _ in range(30):
        q = rng.uniform(q_lo * 2, c * b * 0.999)
        s = best_response_demand(q, paper9_scen)
        interior = (s > 0) & (s < paper9_scen.param("s_max"))
        residual = np.abs(q - c * b * np.exp(-c * s))
        assert np.all(residual[interior] <= 1e-9 * np.maximum(1.0, q[interior]))


def test_demand_is_argmax_on_grid(paper9_scen, rng):
    # no grid point beats the closed form, coordinate by coordinate
    n = paper9_scen.n_devices
    a, b, c = paper9_scen.accuracy_coeffs()
    s_max = paper9_scen.param("s_max")
    q_lo = price_floor(paper9_scen)
    for _ in range(100):
        q = rng.uniform(q_lo, c * b)
        s_star = best_response_demand(q, paper9_scen)
        for i in range(n):
            grid = np.arange(0.0, s_max[i], 1e-3)
            best_grid = np.max(a[i] - b[i] * np.exp(-c[i] * grid) - q[i] * grid)
            star = a[i] - b[i] * np.exp(-c[i] * s_star[i]) - q[i] * s_star[i]
            assert star >= best_grid - 1e-12


def test_demand_monotone_in_price(paper9_scen, rng):
    n = paper9_scen.n_devices
    for _ in range(30):
        q = rng.uniform(1.0, 50.0, size=n)
        s = best_response_demand(q, paper9_scen)
        q2 = q.copy()
        q2[4] *= 1.5
        s2 = best_response_demand(q2, paper9_scen)
        assert s2[4] <= s[4]
        others = np.arange(n) != 4
        assert np.array_equal(s2[others], s[others])


def test_grid_oracle_matches_brute_force_dense_grid(paper9_scen):
    # the two-stage oracle must agree with a single dense pass exactly
    import math

    from support import _concave_grid_argmax

    d = paper9_scen.devices[4].accuracy
    q = 30.0
    step = 1e-6

    def surplus(s):
        return d.a - d.b * np.exp(-d.c * s) - q * s

    s_max = paper9_scen.devices[4].s_max
    ks = np.arange(0, int(math.floor(s_max / step)) + 1)
    dense = float(ks[np.argmax(surplus(ks * step))] * step)
    assert _concave_grid_argmax(surplus, 0.0, s_max, step) == dense


def test_accuracy_vector_consistent(paper9_scen):
    s = np.linspace(0.0, 0.5, paper9_scen.n_devices)
    vec = accuracy_vector(s, paper9_scen)
    for i in range(paper9_scen.n_devices):
        assert vec[i] == pytest.approx(accuracy(i, s[i], paper9_scen), rel=1e-15)
