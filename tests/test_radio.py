import math

import numpy as np
import pytest

from fedrelay.radio import (
    PowerLimitError,
    min_power_for_rate,
    rates_from_matrix,
    transmission_energy_cost,
    transmission_rate,
    transmission_rates,
)
from fedrelay.scenario import build_channel_matrix, random_scenario
from support import grouped_rates_oracle, make_scenario


def unit_gain_scenario(**kwargs):
    # distance sqrt(10) with h = 10, alpha = 2 gives gain exactly 1
    return make_scenario([[0.0, 0.0], [math.sqrt(10.0), 0.0]], **kwargs)


def test_sole_transmitter_unit_sinr():
    scen = unit_gain_scenario()
    H = build_channel_matrix(scen)
    r = transmission_rate(0, np.array([1]), np.array([scen.sigma2 / H[0, 1]]), scen)
    assert r == pytest.approx(1.0, rel=1e-12)


def test_silent_device_flagged():
    scen = unit_gain_scenario()
    with pytest.raises(ValueError):
        transmission_rate(0, np.array([1]), np.array([0.0]), scen)
    rates = transmission_rates(np.array([1]), np.array([0.0]), scen)
    assert np.isnan(rates[0])


def test_rates_match_grouping_oracle(rng):
    for trial in range(60):
        n = int(rng.integers(3, 7))
        scen = random_scenario(n, seed=int(rng.integers(1 << 31)))
        H = build_channel_matrix(scen)
        targets = np.array([rng.choice([t for t in range(n + 1) if t != i]) for i in range(n)])
        powers = rng.uniform(0.05, 10.0, size=n)
        got = transmission_rates(targets, powers, scen)
        want = grouped_rates_oracle(targets, powers, H, scen)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_rates_from_full_matrix_multi_entry_rows():
    # rows with several positive entries still evaluate finitely
    scen = make_scenario([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    P = np.zeros((3, 3))
    P[0, 1] = 0.3
    P[0, 2] = 0.2
    P[1, 2] = 0.5
    rates = rates_from_matrix(P, scen)
    assert np.all(np.isfinite(rates))


def test_energy_cost_zero_power():
    scen = unit_gain_scenario()
    assert transmission_energy_cost(0, np.array([0.0]), np.array([np.nan]), scen) == 0.0


def test_energy_cost_arithmetic():
    scen = unit_gain_scenario(c_t=1.0, I_d=1.0)
    cost = transmission_energy_cost(0, np.array([2.0]), np.array([1.0]), scen)
    assert cost == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(ValueError):
        transmission_energy_cost(0, np.array([2.0]), np.array([0.0]), scen)


def test_energy_cost_matches_recomputation(paper9_scen, paper9_report):
    rep = paper9_report
    d = paper9_scen.devices[0]
    want = d.c_t * (paper9_scen.I_d / rep.rates[0]) * rep.powers[0]
    got = transmission_energy_cost(0, rep.powers, rep.rates, paper9_scen)
    assert got == pytest.approx(want, rel=1e-15)


def test_min_power_unit_case():
    scen = unit_gain_scenario()
    p = min_power_for_rate(0, 1, scen.devices[0].w, 0.0, scen)
    assert p == pytest.approx(1.0, rel=1e-12)


def test_min_power_vanishes_with_rate():
    scen = unit_gain_scenario()
    assert min_power_for_rate(0, 1, 1e-9, 0.0, scen) < 1e-8


def test_min_power_round_trip(rng):
    for _ in range(40):
        n = int(rng.integers(2, 6))
        scen = random_scenario(n, seed=int(rng.integers(1 << 31)))
        H = build_channel_matrix(scen)
        i = int(rng.integers(n))
        target = int(rng.choice([t for t in range(n + 1) if t != i]))
        others_interference = float(rng.uniform(0.0, 5.0))
        # keep the target achievable at p_max
        max_rate = scen.devices[i].w * math.log2(
            1.0 + H[i, target] * scen.devices[i].p_max / (others_interference + scen.sigma2)
        )
        goal = float(rng.uniform(0.1, 0.99)) * max_rate
        p = min_power_for_rate(i, target, goal, others_interference, scen)
        sinr = H[i, target] * p / (others_interference + scen.sigma2)
        achieved = scen.devices[i].w * math.log2(1.0 + sinr)
        assert achieved == pytest.approx(goal, rel=1e-9)


def test_min_power_signals_infeasible():
    scen = unit_gain_scenario(p_max=1.0)
    with pytest.raises(PowerLimitError) as exc:
        min_power_for_rate(0, 1, 10.0, 0.0, scen)
    assert exc.value.required > exc.value.p_max
    with pytest.raises(PowerLimitError) as exc:
        min_power_for_rate(0, 1, 5000.0, 0.0, scen)
    assert exc.value.required == math.inf


def test_min_power_rejects_bad_args():
    scen = unit_gain_scenario()
    with pytest.raises(ValueError):
        min_power_for_rate(0, 1, 0.0, 0.0, scen)
    with pytest.raises(ValueError):
        min_power_for_rate(0, 0, 1.0, 0.0, scen)  # zero self-gain


def test_energy_per_update_monotone_in_power(rng):
    # P / r(P) nondecreasing justifies minimal deadline-meeting power
    for _ in range(25):
        scen = random_scenario(2, seed=int(rng.integers(1 << 31)))
        H = build_channel_matrix(scen)
        interference = float(rng.uniform(0.0, 3.0))
        gain = H[0, 2]
        grid = np.linspace(scen.devices[0].p_max / 1000, scen.devices[0].p_max, 1000)
        rate = scen.devices[0].w * np.log2(1.0 + gain * grid / (interference + scen.sigma2))
        energy = grid / rate
        assert np.all(np.diff(energy) >= 0.0)


def test_rate_monotone_in_own_and_competitor_power(rng):
    # two devices aimed at the access point of a 3-node layout
    scen = make_scenario([[0.0, 0.0], [2.0, 1.0], [1.0, 3.0]])
    targets = np.array([2, 2])
    for _ in range(30):
        p = rng.uniform(0.1, 5.0, size=2)
        base = transmission_rates(targets, p, scen)
        up_own = p.copy()
        up_own[0] += rng.uniform(0.01, 2.0)
        assert transmission_rates(targets, up_own, scen)[0] > base[0]
        up_comp = p.copy()
        up_comp[1] += rng.uniform(0.01, 2.0)
        assert transmission_rates(targets, up_comp, scen)[0] < base[0]
