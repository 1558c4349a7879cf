import dataclasses
import math

import numpy as np
import pytest

from fedrelay import routing
from fedrelay.lower_level import best_response_demand, price_floor
from fedrelay.radio import PowerLimitError, min_power_for_rate, transmission_rates
from fedrelay.scenario import RandomSpec, build_channel_matrix, paper9_scenario, random_scenario
from fedrelay.upper_level import (
    DEFAULT_M_SCHEDULE,
    EquilibriumReport,
    PenaltyConfig,
    StrategyProfile,
    best_response_dynamics,
    default_init,
    device_profit,
    penalized_profit,
    penalty_rho,
    price_best_response,
    reduced_profit,
    relay_power_best_response,
    solve_stackelberg,
    unilateral_gains,
    _RelayContext,
    _round_robin,
    _value,
)
from support import grid_argmax_price, make_device, make_scenario, profit_oracle

M_FINAL = PenaltyConfig().m_schedule[-1]
# slow, heterogeneous processing rates open arrival windows, so relays pay
RELAY_SPEC = RandomSpec(r_p=(5.0, 4.0))


def line_positions(n):
    return [[float(3 * (i + 1)), 0.0] for i in range(n)] + [[0.0, 0.0]]


def relayable_scenario():
    """Two devices where relaying pays: device 0 sits far from the access
    point but next to the slow device 1, whose long computation leaves a
    wide arrival window."""
    devices = (
        make_device(c_p=0.005, c_t=100.0, r_p=100.0, T_a=0.01, a=10.0, b=10.0, c=12.0),
        make_device(c_p=0.005, c_t=50.0, r_p=0.1, T_a=0.01, a=10.0, b=10.0, c=1.0),
    )
    return make_scenario([[10.0, 0.0], [9.0, 0.0], [0.0, 0.0]], devices=devices)


# ---------------------------------------------------------------- profits


def test_device_profit_direct_no_children():
    scen = make_scenario([[0.0, 0.0], [1.0, 0.0]], c_t=2.0, c_p=0.01)
    profile = StrategyProfile(np.array([5.0]), np.array([1]), np.array([0.7]))
    demand = np.array([0.4])
    rates = transmission_rates(profile.targets, profile.powers, scen)
    want = 5.0 * 0.4 - 2.0 * (scen.I_d / rates[0]) * 0.7 - 0.01 * 0.4
    assert device_profit(0, profile, demand, scen) == pytest.approx(want, rel=1e-14)


def test_device_profit_relay_term_counting():
    # device 0 hosts two children and is itself relayed: +2 c_a - c_a
    scen = make_scenario(
        [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0], [0.0, 0.0]], c_a=0.5
    )
    profile = StrategyProfile(
        np.full(4, 5.0), np.array([3, 0, 0, 4]), np.full(4, 1.0)
    )
    demand = np.full(4, 0.1)
    base_profile = StrategyProfile(
        np.full(4, 5.0), np.array([3, 4, 4, 4]), np.full(4, 1.0)
    )
    with_relay = device_profit(0, profile, demand, scen)
    rates = transmission_rates(profile.targets, profile.powers, scen)
    d = scen.devices[0]
    solo_terms = (
        5.0 * 0.1 - d.c_t * (scen.I_d / rates[0]) * 1.0 - d.c_p * 0.1
    )
    assert with_relay == pytest.approx(solo_terms + 2 * scen.c_a - scen.c_a, rel=1e-12)


def test_device_profit_matches_termwise_oracle(paper9_scen, paper9_report):
    rep = paper9_report
    profile = rep.profile()
    for i in (3, 0, 8):
        want = profit_oracle(
            i, rep.prices, rep.targets, rep.powers, rep.demand, rep.rates, paper9_scen
        )
        got = device_profit(i, profile, rep.demand, paper9_scen, rates=rep.rates)
        assert got == pytest.approx(want, rel=1e-12)


def test_reduced_profit_shutoff_price():
    scen = make_scenario([[0.0, 0.0], [1.0, 0.0]], c=12.0, b=10.0)
    cb = 120.0
    profile = StrategyProfile(np.array([cb]), np.array([1]), np.array([1.0]))
    rates = transmission_rates(profile.targets, profile.powers, scen)
    energy = scen.devices[0].c_t * (scen.I_d / rates[0]) * 1.0
    # demand is zero, so only the energy term remains (direct: no fee)
    assert reduced_profit(0, profile, scen) == pytest.approx(-energy, rel=1e-12)


def test_reduced_profit_unit_log_price():
    scen = make_scenario([[0.0, 0.0], [1.0, 0.0]], c=12.0, b=10.0, c_p=0.06)
    cb, c = 120.0, 12.0
    q = cb / math.e
    profile = StrategyProfile(np.array([q]), np.array([1]), np.array([1.0]))
    rates = transmission_rates(profile.targets, profile.powers, scen)
    energy = scen.devices[0].c_t * (scen.I_d / rates[0]) * 1.0
    want = q / c - 0.06 / c - energy  # demand = 1/c
    assert reduced_profit(0, profile, scen) == pytest.approx(want, rel=1e-12)


def test_reduced_profit_is_composition(rng):
    scen = random_scenario(4, seed=31)
    for _ in range(10):
        prices = rng.uniform(5.0, 50.0, size=4)
        targets = np.array([rng.choice([t for t in range(5) if t != i]) for i in range(4)])
        powers = rng.uniform(0.1, 5.0, size=4)
        profile = StrategyProfile(prices, targets, powers)
        demand = best_response_demand(prices, scen)
        for i in range(4):
            assert reduced_profit(i, profile, scen) == pytest.approx(
                device_profit(i, profile, demand, scen), rel=1e-14
            )


# ---------------------------------------------------------------- penalty


def relay_shaped_state():
    """Nine devices with the benchmark's published topology (3->7, 5->4,
    6->4, rest direct), built so the deadlines actually hold: relays get
    slow demand-heavy schedules, children fast ones."""
    n = 9
    positions = [[float(i), float(i % 2)] for i in range(n)] + [[4.5, 5.0]]
    scen = make_scenario(positions, r_p=1.0, T_a=0.01, I_d=0.1)
    targets = routing.adjacency_to_targets(
        {"1": "N_D", "2": "N_D", "3": "7", "4": "N_D", "5": "4", "6": "4",
         "7": "N_D", "8": "N_D", "9": "N_D"}, n
    )
    demand = np.ones(n)
    demand[[3, 6]] = 2.0  # relays compute twice as long
    rates = np.ones(n)
    I = routing.plan_to_indicator(targets, n + 1)
    return scen, I, demand, rates


def test_penalty_zero_iff_feasible_on_relay_topology():
    scen, I, demand, rates = relay_shaped_state()
    ok, violations = routing.feasible(I, demand, rates, scen)
    assert ok, violations
    for i in range(scen.n_devices):
        assert penalty_rho(i, I, demand, rates, scen) == 0.0


def test_penalty_self_loop_at_least_one():
    scen, I, demand, rates = relay_shaped_state()
    I2 = I.copy()
    I2[1, 1], I2[1, 9] = 1, 0
    assert penalty_rho(1, I2, demand, rates, scen) <= -1.0


def test_penalty_timing_contribution_is_squared_violation():
    scen, I, demand, rates = relay_shaped_state()
    demand2 = demand.copy()
    demand2[6] = 1.05  # child 3's relay now finishes at T_s = 1.05
    v = 1.0 + 0.01 * 0 + 0.1 / 1.0 - 1.05  # = 0.05
    got = penalty_rho(2, I, demand2, rates, scen)
    assert got == pytest.approx(-(v**2), abs=1e-15)
    for i in (0, 3, 6):  # everyone else unaffected
        assert penalty_rho(i, I, demand2, rates, scen) == 0.0


def test_penalty_literal_form_rewards_slack():
    scen = make_scenario([[0.0, 0.0], [3.0, 0.0], [1.0, 1.0]], r_p=1.0, I_d=0.1)
    targets = np.array([2, 2])
    I = routing.plan_to_indicator(targets, 3)
    demand = np.array([0.5, 0.5])
    rates = np.array([1.0, 1.0])
    # both direct: structural terms vanish, and the connection surplus
    # (2 - 1) earns nothing, since only violations are penalized
    assert penalty_rho(0, I, demand, rates, scen) == 0.0


def sinr_one_profile():
    """Device 0 relays via device 1 at rate exactly 1, zero demand, so its
    deadline violation is exactly I_d / 1 = 0.1 and rho = -0.01."""
    devices = (
        make_device(c=12.0, b=10.0),
        make_device(c=12.0, b=10.0),
    )
    scen = make_scenario(
        [[0.0, 0.0], [math.sqrt(10.0), 0.0], [math.sqrt(10.0), math.sqrt(10.0)]],
        devices=devices,
    )
    prices = np.array([120.0, 120.0])  # c*b shuts demand off, T_s = 0
    targets = np.array([1, 2])
    H = build_channel_matrix(scen)
    powers = np.array([scen.sigma2 / H[0, 1], 1.0])
    return scen, StrategyProfile(prices, targets, powers)


def test_penalized_profit_arithmetic():
    scen, profile = sinr_one_profile()
    red = reduced_profit(0, profile, scen)
    assert penalized_profit(0, profile, 1e3, scen) == pytest.approx(red - 10.0, rel=1e-12)
    assert penalized_profit(0, profile, 1e9, scen) == pytest.approx(red - 1e7, rel=1e-9)
    with pytest.raises(ValueError):
        penalized_profit(0, profile, 0.0, scen)


def test_penalized_profit_equals_reduced_when_feasible():
    scen = relayable_scenario()
    profile = StrategyProfile(
        np.array([50.0, 5.0]), np.array([2, 2]), np.array([1.0, 1.0])
    )
    for i in range(2):
        assert penalized_profit(i, profile, M_FINAL, scen) == reduced_profit(i, profile, scen)


def test_penalty_matches_feasibility_on_random_profiles(rng):
    hits = {True: 0, False: 0}
    for _ in range(200):
        n = int(rng.integers(1, 6))
        scen = random_scenario(n, seed=int(rng.integers(1 << 31)))
        targets = np.array([rng.choice([t for t in range(n + 1) if t != i]) for i in range(n)])
        powers = rng.uniform(0.05, scen.devices[0].p_max, size=n)
        demand = rng.uniform(0.0, scen.param("s_max"))
        rates = transmission_rates(targets, powers, scen)
        I = routing.plan_to_indicator(targets, n + 1)
        ok, _ = routing.feasible(I, demand, rates, scen)
        rho_zero = all(
            penalty_rho(i, I, demand, rates, scen) == 0.0 for i in range(n)
        )
        assert rho_zero == ok
        hits[ok] += 1
    assert min(hits.values()) > 10  # both sides of the equivalence exercised


# ---------------------------------------------------------------- price BR


def test_price_br_zero_processing_cost():
    devices = (make_device(c_p=0.0, c=12.0, b=10.0),)
    scen = make_scenario([[0.0, 0.0], [1.0, 0.0]], devices=devices)
    q = price_best_response(0, scen)
    assert abs(q - 120.0 / math.e) <= 1e-10


def test_price_br_clamps_to_price_cap():
    devices = (make_device(c_p=0.001, c=12.0, b=10.0, q_max=1.0),)
    scen = make_scenario([[0.0, 0.0], [1.0, 0.0]], devices=devices)
    assert price_best_response(0, scen) == 1.0


def test_price_br_matches_grid_oracle(paper9_scen):
    q = price_best_response(0, paper9_scen)
    want = grid_argmax_price(0, paper9_scen, q_lo=price_floor(paper9_scen))
    assert abs(q - want) <= 1e-5


def test_price_br_interior_stationarity(paper9_scen):
    for i in range(paper9_scen.n_devices):
        d = paper9_scen.devices[i]
        cb = d.accuracy.c * d.accuracy.b
        q = price_best_response(i, paper9_scen)
        assert d.c_p < q < cb
        assert math.log(cb / q) == pytest.approx(1.0 - d.c_p / q, abs=1e-10)


def test_price_br_degenerate_device(caplog):
    devices = (make_device(c_p=500.0, c=12.0, b=10.0),)
    scen = make_scenario([[0.0, 0.0], [1.0, 0.0]], devices=devices)
    with caplog.at_level("WARNING"):
        q = price_best_response(0, scen)
    assert q == 120.0  # demand-zeroing price, clamped to the cap
    assert "degenerate" in caplog.text


# ------------------------------------------------------------- relay BR


def test_relay_br_single_device_goes_direct():
    scen = make_scenario([[3.0, 0.0], [0.0, 0.0]])
    profile = default_init(scen)
    demand = best_response_demand(profile.prices, scen)
    target, power = relay_power_best_response(0, profile, demand, scen, M_FINAL)
    assert target == 1
    assert 0 < power <= scen.devices[0].p_max


def test_relay_br_prefers_cheap_relay_and_matches_enumeration():
    scen = relayable_scenario()
    profile = default_init(scen)
    demand = best_response_demand(profile.prices, scen)
    target, power = relay_power_best_response(0, profile, demand, scen, M_FINAL)
    assert target == 1  # through the slow neighbor, not direct

    # exhaustive oracle over (target, 100-point power grid)
    best_val, best_target = -np.inf, None
    for j in (1, 2):
        for k in range(1, 101):
            p = scen.devices[0].p_max * k / 100.0
            trial = profile.copy()
            trial.targets[0], trial.powers[0] = j, p
            val = penalized_profit(0, trial, M_FINAL, scen)
            if val > best_val:
                best_val, best_target = val, j
    assert target == best_target
    chosen = profile.copy()
    chosen.targets[0], chosen.powers[0] = target, power
    assert penalized_profit(0, chosen, M_FINAL, scen) >= best_val - 1e-12


def test_relay_br_unmeetable_deadline_goes_direct():
    devices = (
        make_device(c_t=100.0, r_p=100.0, c=12.0),
        make_device(c_t=50.0, r_p=1000.0, c=12.0),  # fast relay, no window
    )
    scen = make_scenario([[10.0, 0.0], [9.0, 0.0], [0.0, 0.0]], devices=devices)
    profile = default_init(scen)
    demand = best_response_demand(profile.prices, scen)
    target, _ = relay_power_best_response(0, profile, demand, scen, M_FINAL)
    assert target == 2


def test_relay_br_reports_no_feasible_action(caplog):
    # devices 1 and 2 form a cycle that no action of device 0 can fix, so
    # the global chain-termination defect taints every candidate
    scen = make_scenario(
        [[3.0, 0.0], [4.0, 0.0], [5.0, 0.0], [0.0, 0.0]], r_p=1.0
    )
    profile = StrategyProfile(
        np.array([60.0, 60.0, 60.0]), np.array([3, 2, 1]), np.ones(3)
    )
    demand = np.array([0.1, 0.1, 0.1])
    with caplog.at_level("WARNING"):
        target, _ = relay_power_best_response(0, profile, demand, scen, M_FINAL)
    assert "no feasible action" in caplog.text
    assert target == 3  # least-penalized: keep its own link clean


def random_profile(rng, scen):
    """Random prices and positive powers; uniform targets, so cycles, tails
    into cycles and relay chains all occur."""
    n = scen.n_devices
    targets = np.array([rng.choice([t for t in range(n + 1) if t != i]) for i in range(n)])
    powers = rng.uniform(1e-3, 1.0, size=n) * scen.param("p_max")
    prices = rng.uniform(0.1, 0.9, size=n) * scen.param("q_max")
    return StrategyProfile(prices, targets, powers)


def chain_fails(targets, k, n):
    node = k
    for _ in range(n):
        node = int(targets[node])
        if node == n:
            return False
    return True


def on_cycle(targets, k, n):
    node = k
    for _ in range(n):
        node = int(targets[node])
        if node == n:
            return False
        if node == k:
            return True
    return False


def test_relay_context_matches_matrix_value():
    rng = np.random.default_rng(1107)
    seen = dict.fromkeys(
        ("cycle_through_i", "cycle_elsewhere", "tail_into_cycle", "relay_no_slack", "relay_slack",
         "late"), 0
    )
    for trial in range(150):
        n = int(rng.integers(2, 8))
        spec = RELAY_SPEC if trial % 2 else RandomSpec()
        scen = random_scenario(n, seed=int(rng.integers(1 << 31)), spec=spec)
        profile = random_profile(rng, scen)
        demand = best_response_demand(profile.prices, scen)
        T_s = routing.processing_times(demand, scen)
        i = int(rng.integers(n))
        inflow = sum(1 for k in range(n) if k != i and profile.targets[k] == i)
        ctx = _RelayContext(i, profile, demand, scen)
        p_max = scen.devices[i].p_max
        for j in [t for t in range(n + 1) if t != i]:
            first = p_max / 50 if j == n else ctx.deadline_power(j)
            for p in (first, rng.uniform(1e-3, 1.0) * p_max):
                targets, powers = profile.targets.copy(), profile.powers.copy()
                targets[i], powers[i] = j, p
                fails = [k for k in range(n) if chain_fails(targets, k, n)]
                seen["cycle_through_i"] += i in fails and on_cycle(targets, i, n)
                seen["cycle_elsewhere"] += bool(fails) and i not in fails
                seen["tail_into_cycle"] += any(not on_cycle(targets, k, n) for k in fails)
                if j < n:
                    slack = T_s[j] - T_s[i] - scen.devices[i].T_a * inflow
                    seen["relay_slack" if slack > 0 else "relay_no_slack"] += 1
                rates = transmission_rates(targets, powers, scen)
                I = routing.plan_to_indicator(targets, n + 1)
                late = routing.timing_violations(I, demand, rates, scen)[i] > 0
                seen["late"] += late
                for M in DEFAULT_M_SCHEDULE:
                    val, rho = ctx.value(j, p, M)
                    want_val, want_rho = _value(
                        i, profile.prices, targets, powers, demand, scen, M
                    )
                    if late:  # the deadline term rests on a rate summed in another order
                        assert math.isclose(rho, want_rho, rel_tol=1e-12, abs_tol=0.0)
                        assert rho < 0.0
                    else:
                        assert rho == want_rho
                    assert math.isclose(val, want_val, rel_tol=1e-12, abs_tol=0.0)
    assert min(seen.values()) >= 20, seen


def grid_candidates(i, profile, demand, scen, H, power_grid=50):
    """The candidate set before the direct link collapsed to its power
    floor: every device target at its deadline-matching power (p_max when
    unmeetable), then the full ascending direct-link power grid."""
    n, ap = scen.n_devices, scen.ap
    d = scen.devices[i]
    T_s = routing.processing_times(demand, scen)
    others = [k for k in range(n) if k != i]
    inflow = sum(1 for k in others if profile.targets[k] == i)
    candidates = []
    for j in others:
        interference = sum(
            H[k, j] * profile.powers[k] for k in others if profile.targets[k] == j
        )
        slack = T_s[j] - T_s[i] - d.T_a * inflow
        p = d.p_max
        if slack > 0:
            try:
                p = min_power_for_rate(
                    i, j, scen.I_d / slack * (1.0 + 1e-9), interference, scen
                )
            except PowerLimitError:
                pass
        candidates.append((j, p))
    candidates += [(ap, d.p_max * k / power_grid) for k in range(1, power_grid + 1)]
    return candidates


def test_relay_br_matches_grid_candidate_oracle():
    rng = np.random.default_rng(2203)
    outcomes = {"relay": 0, "direct": 0}
    for trial in range(40):
        n = int(rng.integers(2, 9))
        spec = RELAY_SPEC if trial % 2 else RandomSpec()
        scen = random_scenario(n, seed=int(rng.integers(1 << 31)), spec=spec)
        H = build_channel_matrix(scen)
        profile = default_init(scen) if trial % 4 == 0 else random_profile(rng, scen)
        demand = best_response_demand(profile.prices, scen)
        for i in range(n):
            M = float(rng.choice(DEFAULT_M_SCHEDULE))
            best, best_val = None, -np.inf
            for j, p in grid_candidates(i, profile, demand, scen, H):
                if p <= 0:
                    continue
                targets, powers = profile.targets.copy(), profile.powers.copy()
                targets[i], powers[i] = j, p
                val, _ = _value(i, profile.prices, targets, powers, demand, scen, M)
                if val > best_val:
                    best, best_val = (j, p), val
            got = relay_power_best_response(i, profile, demand, scen, M)
            assert got == best
            outcomes["direct" if got[0] == n else "relay"] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_relay_br_requires_positive_powers():
    scen = relayable_scenario()
    profile = StrategyProfile(np.array([50.0, 5.0]), np.array([2, 2]), np.array([1.0, 0.0]))
    demand = best_response_demand(profile.prices, scen)
    with pytest.raises(ValueError, match="positive power"):
        relay_power_best_response(0, profile, demand, scen, M_FINAL)


# ------------------------------------------------------------- dynamics


def test_dynamics_single_device_matches_exhaustive_oracle():
    scen = make_scenario([[3.0, 0.0], [0.0, 0.0]], c=12.0, b=10.0, c_p=0.01)
    rep = best_response_dynamics(scen)
    assert rep.converged
    assert rep.targets[0] == 1
    assert rep.prices[0] == pytest.approx(price_best_response(0, scen), abs=1e-12)
    assert np.array_equal(rep.demand, best_response_demand(rep.prices, scen))

    # exhaustive over dense prices x the solver's own power grid; powers
    # below the grid floor are out of scope (the direct-link energy cost
    # falls toward its zero-power floor, so the grid pins the resolution)
    base = penalized_profit(0, rep.profile(), M_FINAL, scen)
    q_lo = price_floor(scen)
    solver_grid = scen.devices[0].p_max * np.arange(1, 51) / 50
    for q in np.linspace(q_lo, scen.devices[0].q_max, 200):
        for p in solver_grid:
            trial = StrategyProfile(np.array([q]), np.array([1]), np.array([p]))
            assert penalized_profit(0, trial, M_FINAL, scen) <= base + 1e-9


def test_dynamics_symmetric_devices_symmetric_equilibrium():
    scen = make_scenario([[-3.0, 0.0], [3.0, 0.0], [0.0, 0.0]])
    fwd = best_response_dynamics(scen)
    rev, _, _, rev_stable = _round_robin(scen, PenaltyConfig(), 100, "reverse", 50)
    assert fwd.converged and rev_stable
    assert abs(fwd.prices[0] - fwd.prices[1]) <= 1e-6
    assert abs(fwd.powers[0] - fwd.powers[1]) <= 1e-9
    assert np.array_equal(fwd.targets, rev.targets)
    assert np.allclose(fwd.powers, rev.powers, rtol=0, atol=1e-9)
    assert solve_stackelberg(scen).order_robust is True


def test_dynamics_reaches_relay_equilibrium():
    scen = relayable_scenario()
    rep = solve_stackelberg(scen)
    assert rep.converged
    assert rep.feasible
    assert list(rep.targets) == [1, 2]  # 0 relays through 1, 1 direct
    assert rep.order_robust is True
    assert rep.max_unilateral_gain <= 1e-6
    # relay computes on more data than its child at equilibrium prices
    assert rep.demand[1] > rep.demand[0]
    I = routing.plan_to_indicator(rep.targets, scen.n_nodes)
    assert routing.check_timing(I, rep.demand, rep.rates, scen, tol=1e-9).all()


def test_dynamics_on_benchmark(paper9_scen, paper9_report):
    rep = paper9_report
    assert rep.converged
    assert rep.max_unilateral_gain <= 1e-6
    assert rep.feasible
    assert (rep.targets == paper9_scen.ap).sum() >= 1
    # co-relay interference: every device sharing its relay transmits
    # slower than it would alone
    for i in range(paper9_scen.n_devices):
        sharers = [k for k in range(paper9_scen.n_devices)
                   if k != i and rep.targets[k] == rep.targets[i]]
        if not sharers:
            continue
        solo = np.zeros_like(rep.powers)
        solo[i] = rep.powers[i]
        solo_rate = transmission_rates(rep.targets, solo, paper9_scen)[i]
        assert rep.rates[i] < solo_rate


# Equilibria recorded before the O(1) candidate evaluation replaced the
# matrix-form scoring of every candidate; the dynamics must not move.
# Certificates (max_unilateral_gain, feasible, violations, order_robust)
# recorded before the deadline, reachability and structural checks were
# each folded into one implementation.
PINNED = {
    "paper9_seed7": (
        [9] * 9, 15,
        [54.97961491340582, 30.87560728130037, 59.764025468602206, 46.073780762551294,
         42.61906726760165, 45.81927813840596, 60.44429053948483, 47.83166643329256,
         55.799674674373875],
        [0.2] * 9,
    ),
    "random6_seed1": (
        [6] * 6, 10,
        [50.81205534798074, 52.24545136845467, 42.40612823152861, 41.609514404056654,
         55.55928180484655, 51.295942076632286],
        [0.2] * 6,
    ),
    "relay9_seed1_Id0.1": (
        [2, 2, 9, 2, 9, 9, 2, 2, 9], 8,
        [52.01490651291965, 52.64631811163888, 47.84089954396671, 33.737122406980134,
         53.35687970994425, 64.2982239646588, 41.421236889346645, 36.5455422022181,
         59.156107912890576],
        [0.4962454920964919, 0.47380124958700354, 0.2, 0.4348521146347665, 0.2, 0.2,
         0.20926252145704272, 0.001540587643561292, 0.2],
    ),
}


PINNED_CERTIFICATES = {
    "paper9_seed7": (0.0, True, [], True),
    "random6_seed1": (0.0, True, [], None),
    "relay9_seed1_Id0.1": (0.000853760253960445, True, [], None),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_equilibrium_regression(name):
    if name == "paper9_seed7":
        rep = solve_stackelberg(paper9_scenario(7))
    elif name == "random6_seed1":
        rep = solve_stackelberg(random_scenario(6, seed=1), order_check=False)
    else:
        scen = dataclasses.replace(random_scenario(9, seed=1, spec=RELAY_SPEC), I_d=0.1)
        rep = solve_stackelberg(scen, max_iter=1, order_check=False)
    targets, iterations, prices, powers = PINNED[name]
    assert rep.targets.tolist() == targets
    assert rep.iterations == iterations
    np.testing.assert_allclose(rep.prices, prices, rtol=1e-12, atol=0)
    np.testing.assert_allclose(rep.powers, powers, rtol=1e-12, atol=0)
    gain, feasible, violations, order_robust = PINNED_CERTIFICATES[name]
    assert rep.max_unilateral_gain == pytest.approx(gain, rel=1e-9, abs=1e-15)
    assert rep.feasible is feasible
    assert rep.violations == violations
    assert rep.order_robust is order_robust


def test_dynamics_backward_consistency_and_rationality(paper9_scen, paper9_report):
    rep = paper9_report
    assert np.array_equal(rep.demand, best_response_demand(rep.prices, paper9_scen))
    profile = rep.profile()
    for i in range(paper9_scen.n_devices):
        zero_margin = profile.copy()
        zero_margin.prices[i] = paper9_scen.devices[i].c_p
        assert reduced_profit(i, profile, paper9_scen) >= reduced_profit(
            i, zero_margin, paper9_scen
        )


def test_epsilon_nash_certificate_scan():
    # alternatives drawn from dense prices and the solver's power grid,
    # plus the deadline-matching powers the solver itself would pick
    scen = relayable_scenario()
    rep = best_response_dynamics(scen)
    assert rep.converged
    profile = rep.profile()
    q_lo = price_floor(scen)
    for i in range(scen.n_devices):
        base = penalized_profit(i, profile, M_FINAL, scen)
        for q in np.linspace(q_lo, scen.devices[i].q_max, 60):
            trial = profile.copy()
            trial.prices[i] = q
            assert penalized_profit(i, trial, M_FINAL, scen) <= base + 1e-6 + 1e-9
        demand = best_response_demand(profile.prices, scen)
        j_alt, p_alt = relay_power_best_response(i, profile, demand, scen, M_FINAL)
        trial = profile.copy()
        trial.targets[i], trial.powers[i] = j_alt, p_alt
        assert penalized_profit(i, trial, M_FINAL, scen) <= base + 1e-6 + 1e-9
        for j in [t for t in range(scen.n_nodes) if t != i]:
            for p in scen.devices[i].p_max * np.arange(1, 51) / 50:
                trial = profile.copy()
                trial.targets[i], trial.powers[i] = j, p
                assert penalized_profit(i, trial, M_FINAL, scen) <= base + 1e-6 + 1e-9


def test_unilateral_gains_zero_at_fixed_point():
    scen = relayable_scenario()
    rep = best_response_dynamics(scen)
    gains = unilateral_gains(rep.profile(), scen, M_FINAL)
    assert np.all(gains <= 1e-12)


def test_nonconvergence_is_reported_not_raised():
    scen = relayable_scenario()
    rep = best_response_dynamics(scen, max_iter=0)
    assert rep.converged is False
    assert rep.iterations == 0
    assert len(rep.prices) == 2
    assert math.isfinite(rep.max_unilateral_gain)


def test_penalty_config_validation():
    with pytest.raises(ValueError):
        PenaltyConfig(m_schedule=())
    with pytest.raises(ValueError):
        PenaltyConfig(m_schedule=(10.0, 5.0))
    with pytest.raises(ValueError):
        PenaltyConfig(m_schedule=(0.0, 10.0))


def test_strategy_profile_validation():
    with pytest.raises(ValueError):
        StrategyProfile(np.ones(2), np.array([0, 2]), np.ones(2))  # self-target
    with pytest.raises(ValueError):
        StrategyProfile(np.ones(2), np.array([1]), np.ones(2))
    with pytest.raises(ValueError, match="integers"):
        StrategyProfile(np.ones(2), [1.7, 2], np.ones(2))
    with pytest.raises(ValueError, match="integers"):
        StrategyProfile(np.ones(2), [np.nan, 2], np.ones(2))
    with pytest.raises(ValueError, match="integers"):
        StrategyProfile(np.ones(2), ["1", 2], np.ones(2))
    with pytest.raises(ValueError, match="prices must be finite"):
        StrategyProfile([np.nan, 1.0], [1, 2], np.ones(2))
    with pytest.raises(ValueError, match="powers must be finite"):
        StrategyProfile(np.ones(2), [1, 2], [np.inf, 1.0])
    with pytest.raises(ValueError, match="powers must be finite"):
        StrategyProfile(np.ones(2), [1, 2], [np.nan, 1.0])
    # integral floats are targets; a zero power is a silent device
    profile = StrategyProfile(np.ones(2), [1.0, 2.0], [1.0, 0.0])
    assert profile.targets.dtype.kind == "i"
    assert profile.targets.tolist() == [1, 2]


def test_report_dict_round_trip(paper9_report):
    data = paper9_report.to_dict()
    back = EquilibriumReport.from_dict(data)
    assert np.array_equal(back.prices, paper9_report.prices)
    assert np.array_equal(back.targets, paper9_report.targets)
    assert back.owner_utility == paper9_report.owner_utility
    assert back.converged == paper9_report.converged
    assert back.order_robust == paper9_report.order_robust
