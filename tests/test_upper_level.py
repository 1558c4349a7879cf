import dataclasses
import math

import numpy as np
import pytest

from fedrelay import routing
from fedrelay.lower_level import best_response_demand, price_floor
from fedrelay.radio import PowerLimitError, min_power_for_rate, transmission_rates
from fedrelay.scenario import (
    RELAY_SPEC,
    RandomSpec,
    build_channel_matrix,
    paper9_scenario,
    random_scenario,
)
from fedrelay.upper_level import (
    DEFAULT_M_SCHEDULE,
    PenaltyConfig,
    StrategyProfile,
    default_init,
    penalty_rho,
    price_best_response,
    solve_stackelberg,
    unilateral_gains,
    _Run,
)
from fedrelay import radio, upper_level
from support import (
    ENDS_AT_AP,
    ENDS_AT_I,
    ENDS_IN_CYCLE,
    candidates,
    caught_up_run,
    chain_ends,
    copy_profile,
    deadline_power,
    device_profit,
    fresh_best_response,
    grid_argmax_price,
    interference,
    make_device,
    make_scenario,
    matrix_value,
    penalized_profit,
    profit_oracle,
    pure_equilibria,
    reduced_profit,
    reversed_devices,
    round_robin_oracle,
    same_links,
    settled_run,
    unilateral_gains_oracle,
    value,
)

M_FINAL = PenaltyConfig().m_schedule[-1]


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
    # the report's profits; the relay-regime solve has 5 relay links, so
    # relay revenue and relay fees are scored too
    relay_scen = dataclasses.replace(random_scenario(9, 1, RELAY_SPEC), I_d=0.1)
    relay_report = solve_stackelberg(relay_scen)
    assert int((relay_report.targets != relay_scen.ap).sum()) == 5
    for scen, rep in ((paper9_scen, paper9_report), (relay_scen, relay_report)):
        want = [
            profit_oracle(i, rep.prices, rep.targets, rep.powers, rep.demand, rep.rates, scen)
            for i in range(scen.n_devices)
        ]
        assert rep.profits.tolist() == want


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
    target, power = fresh_best_response(0, profile, demand, scen, M_FINAL)
    assert target == 1
    assert 0 < power <= scen.devices[0].p_max


def test_relay_br_prefers_cheap_relay_and_matches_enumeration():
    scen = relayable_scenario()
    profile = default_init(scen)
    demand = best_response_demand(profile.prices, scen)
    target, power = fresh_best_response(0, profile, demand, scen, M_FINAL)
    assert target == 1  # through the slow neighbor, not direct

    # exhaustive oracle over (target, 100-point power grid)
    best_val, best_target = -np.inf, None
    for j in (1, 2):
        for k in range(1, 101):
            p = scen.devices[0].p_max * k / 100.0
            trial = copy_profile(profile)
            trial.targets[0], trial.powers[0] = j, p
            val = penalized_profit(0, trial, M_FINAL, scen)
            if val > best_val:
                best_val, best_target = val, j
    assert target == best_target
    chosen = copy_profile(profile)
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
    target, _ = fresh_best_response(0, profile, demand, scen, M_FINAL)
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
        target, _ = fresh_best_response(0, profile, demand, scen, M_FINAL)
    assert "no feasible action" in caplog.text
    assert target == 3  # least-penalized: keep its own link clean


def test_best_reranks_an_untouched_device_only_without_a_feasible_action(caplog, monkeypatch):
    ranked = 0
    original = _Run.structure

    def counted(*args, **kwargs):
        nonlocal ranked
        ranked += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(_Run, "structure", counted)
    # the cycle of test_relay_br_reports_no_feasible_action: every call ranks and warns
    scen = make_scenario([[3.0, 0.0], [4.0, 0.0], [5.0, 0.0], [0.0, 0.0]], r_p=1.0)
    profile = StrategyProfile(np.array([60.0, 60.0, 60.0]), np.array([3, 2, 1]), np.ones(3))
    run = _Run(profile, np.array([0.1, 0.1, 0.1]), scen, 50)
    with caplog.at_level("WARNING"):
        answers = [run.best(0, M) for M in (M_FINAL, M_FINAL, 10 * M_FINAL)]
    assert len(set(answers)) == 1 and ranked == 3
    assert caplog.text.count("no feasible action") == 3
    # all direct: a feasible answer stands at its own and at any larger coefficient
    scen = paper9_scenario(7)
    profile = default_init(scen)
    run = _Run(profile, best_response_demand(profile.prices, scen), scen, 50)
    answers = [run.best(0, M) for M in (10.0, 10.0, 1e8)]
    assert ranked == 4
    assert answers == [fresh_best_response(0, profile, run.demand, scen, 1e8)] * 3


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
        run = caught_up_run(i, profile, demand, scen)
        p_max = scen.devices[i].p_max
        for j in [t for t in range(n + 1) if t != i]:
            first = p_max / 50 if j == n else deadline_power(run, i, j)
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
                    val, rho = value(run, i, j, p, M)
                    want_val, want_rho = matrix_value(
                        i, profile.prices, targets, powers, demand, scen, M
                    )
                    assert (val, rho) == (want_val, want_rho)
                    assert rho < 0.0 or not late
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
                val, _ = matrix_value(i, profile.prices, targets, powers, demand, scen, M)
                if val > best_val:
                    best, best_val = (j, p), val
            got = fresh_best_response(i, profile, demand, scen, M)
            assert got == best
            outcomes["direct" if got[0] == n else "relay"] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_relay_br_requires_positive_powers():
    # a zero power is no strategy: no profile, so no best response, holds one
    with pytest.raises(ValueError, match="^powers must be positive$"):
        StrategyProfile(np.array([50.0, 5.0]), np.array([2, 2]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="^powers must be positive$"):
        StrategyProfile(np.array([50.0]), np.array([1]), np.array([0.0]))
    # a positive power whose rate rounds to 0 has no rate for the certificate to score
    solo = make_scenario([[3.0, 0.0], [0.0, 0.0]])
    stalled = StrategyProfile(np.array([50.0]), np.array([1]), np.array([1e-320]))
    with pytest.raises(ValueError, match="^device 0 transmits to node 1 with power .* at rate 0$"):
        unilateral_gains(stalled, solo, M_FINAL)


# ------------------------------------------------------------- dynamics


def test_dynamics_single_device_matches_exhaustive_oracle():
    scen = make_scenario([[3.0, 0.0], [0.0, 0.0]], c=12.0, b=10.0, c_p=0.01)
    rep = solve_stackelberg(scen)
    assert rep.converged
    assert rep.targets[0] == 1
    assert rep.prices[0] == pytest.approx(price_best_response(0, scen), abs=1e-12)
    assert np.array_equal(rep.demand, best_response_demand(rep.prices, scen))

    # exhaustive over dense prices x the solver's own power grid; powers
    # below the grid floor are out of scope (the direct-link energy cost
    # falls toward its zero-power floor, so the grid pins the resolution)
    base = penalized_profit(0, copy_profile(rep), M_FINAL, scen)
    q_lo = price_floor(scen)
    solver_grid = scen.devices[0].p_max * np.arange(1, 51) / 50
    for q in np.linspace(q_lo, scen.devices[0].q_max, 200):
        for p in solver_grid:
            trial = StrategyProfile(np.array([q]), np.array([1]), np.array([p]))
            assert penalized_profit(0, trial, M_FINAL, scen) <= base + 1e-9


def test_dynamics_symmetric_devices_symmetric_equilibrium():
    scen = make_scenario([[-3.0, 0.0], [3.0, 0.0], [0.0, 0.0]])
    fwd = solve_stackelberg(scen)
    rev, _, _, rev_stable = round_robin_oracle(scen, PenaltyConfig(), 100, "reverse", 50)
    assert fwd.converged and rev_stable
    assert abs(fwd.prices[0] - fwd.prices[1]) <= 1e-6
    assert abs(fwd.powers[0] - fwd.powers[1]) <= 1e-9
    assert same_links(fwd, rev)


def test_dynamics_reaches_relay_equilibrium():
    scen = relayable_scenario()
    rep = solve_stackelberg(scen)
    assert rep.converged
    assert rep.feasible
    assert list(rep.targets) == [1, 2]  # 0 relays through 1, 1 direct
    assert same_links(rep, round_robin_oracle(scen, PenaltyConfig(), 100, "reverse", 50)[0])
    assert rep.max_unilateral_gain <= 1e-6
    # relay computes on more data than its child at equilibrium prices
    assert rep.demand[1] > rep.demand[0]
    I = routing.plan_to_indicator(rep.targets, scen.n_nodes)
    assert routing.check_timing(I, rep.demand, rep.rates, scen, tol=1e-9).all()


# pure equilibria of random_scenario(4, seed, RELAY_SPEC) at I_d = 0.1, by enumeration
EQUILIBRIUM_COUNTS = {0: 1, 1: 1, 2: 1, 3: 1, 9: 2, 10: 2, 21: 3}


@pytest.mark.parametrize("seed", sorted(EQUILIBRIUM_COUNTS))
def test_solve_settles_on_an_enumerated_equilibrium(seed):
    scen = dataclasses.replace(random_scenario(4, seed, RELAY_SPEC), I_d=0.1)
    equilibria = pure_equilibria(scen)
    assert len(equilibria) == EQUILIBRIUM_COUNTS[seed]
    rep = solve_stackelberg(scen)
    assert rep.converged
    assert [e for e in equilibria if same_links(rep, e)]


def test_update_order_picks_between_enumerated_equilibria():
    scen = dataclasses.replace(random_scenario(4, 9, RELAY_SPEC), I_d=0.1)
    first, second = pure_equilibria(scen)
    fwd = solve_stackelberg(scen)
    rev, _, _, rev_stable = round_robin_oracle(scen, PenaltyConfig(), 100, "reverse", 50)
    assert fwd.converged and rev_stable
    assert same_links(fwd, first) and not same_links(fwd, second)
    assert same_links(rev, second) and not same_links(rev, first)


def test_no_enumerated_equilibrium_no_convergence():
    scen = dataclasses.replace(random_scenario(4, 9, RELAY_SPEC), I_d=0.05)
    assert pure_equilibria(scen) == []
    assert solve_stackelberg(scen).converged is False


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
# Certificates (max_unilateral_gain, feasible, violations)
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
    "paper9_seed7": (0.0, True, []),
    "random6_seed1": (0.0, True, []),
    "relay9_seed1_Id0.1": (0.000853760253960445, True, []),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_equilibrium_regression(name):
    if name == "paper9_seed7":
        rep = solve_stackelberg(paper9_scenario(7))
    elif name == "random6_seed1":
        rep = solve_stackelberg(random_scenario(6, seed=1))
    else:
        scen = dataclasses.replace(random_scenario(9, seed=1, spec=RELAY_SPEC), I_d=0.1)
        rep = solve_stackelberg(scen, max_iter=1)
    targets, iterations, prices, powers = PINNED[name]
    assert rep.targets.tolist() == targets
    assert rep.iterations == iterations
    np.testing.assert_allclose(rep.prices, prices, rtol=1e-12, atol=0)
    np.testing.assert_allclose(rep.powers, powers, rtol=1e-12, atol=0)
    gain, feasible, violations = PINNED_CERTIFICATES[name]
    assert rep.max_unilateral_gain == pytest.approx(gain, rel=1e-9, abs=1e-15)
    assert rep.feasible is feasible
    assert rep.violations == violations
    if name == "paper9_seed7":  # the reverse device order reaches the same profile
        assert same_links(rep, round_robin_oracle(paper9_scenario(7), PenaltyConfig(), 100, "reverse", 50)[0])


def test_dynamics_backward_consistency_and_rationality(paper9_scen, paper9_report):
    rep = paper9_report
    assert np.array_equal(rep.demand, best_response_demand(rep.prices, paper9_scen))
    profile = copy_profile(rep)
    for i in range(paper9_scen.n_devices):
        zero_margin = copy_profile(profile)
        zero_margin.prices[i] = paper9_scen.devices[i].c_p
        assert reduced_profit(i, profile, paper9_scen) >= reduced_profit(
            i, zero_margin, paper9_scen
        )


def test_epsilon_nash_certificate_scan():
    # alternatives drawn from dense prices and the solver's power grid,
    # plus the deadline-matching powers the solver itself would pick
    scen = relayable_scenario()
    rep = solve_stackelberg(scen)
    assert rep.converged
    profile = copy_profile(rep)
    q_lo = price_floor(scen)
    for i in range(scen.n_devices):
        base = penalized_profit(i, profile, M_FINAL, scen)
        for q in np.linspace(q_lo, scen.devices[i].q_max, 60):
            trial = copy_profile(profile)
            trial.prices[i] = q
            assert penalized_profit(i, trial, M_FINAL, scen) <= base + 1e-6 + 1e-9
        demand = best_response_demand(profile.prices, scen)
        j_alt, p_alt = fresh_best_response(i, profile, demand, scen, M_FINAL)
        trial = copy_profile(profile)
        trial.targets[i], trial.powers[i] = j_alt, p_alt
        assert penalized_profit(i, trial, M_FINAL, scen) <= base + 1e-6 + 1e-9
        for j in [t for t in range(scen.n_nodes) if t != i]:
            for p in scen.devices[i].p_max * np.arange(1, 51) / 50:
                trial = copy_profile(profile)
                trial.targets[i], trial.powers[i] = j, p
                assert penalized_profit(i, trial, M_FINAL, scen) <= base + 1e-6 + 1e-9


def test_unilateral_gains_zero_at_fixed_point():
    scen = relayable_scenario()
    rep = solve_stackelberg(scen)
    gains = unilateral_gains(copy_profile(rep), scen, M_FINAL)
    assert np.all(gains <= 1e-12)


def certificate_runs():
    """(label, scenario, max_iter) solves: paper9 seeds 0-11; relay-spec
    n = 9 seeds 0-5 at three update sizes, unsettled after one round per
    stage and at the default budget; random n = 16 seeds 0-3."""
    runs = [(f"paper9 seed {s}", paper9_scenario(s), 100) for s in range(12)]
    for s in range(6):
        for I_d in (0.05, 0.1, 0.2):
            scen = dataclasses.replace(random_scenario(9, s, RELAY_SPEC), I_d=I_d)
            runs += [(f"relay seed {s} I_d={I_d}", scen, max_iter) for max_iter in (1, 100)]
    runs += [(f"random n=16 seed {s}", random_scenario(16, s), 8) for s in range(4)]
    return runs


def test_solve_certificate_equals_fresh_oracle(monkeypatch):
    seen = []
    original = _Run._gains

    def recorded(run, *args, **kwargs):
        gains = original(run, *args, **kwargs)
        seen.append((run, gains))
        return gains

    def fresh(*args, **kwargs):
        raise AssertionError("a solve certifies from its forward run")

    monkeypatch.setattr(_Run, "_gains", recorded)
    monkeypatch.setattr(upper_level, "unilateral_gains", fresh)
    positive = 0
    for label, scen, max_iter in certificate_runs():
        seen.clear()
        rep = solve_stackelberg(scen, max_iter=max_iter)
        [(run, gains)] = seen
        want = unilateral_gains_oracle(copy_profile(rep), scen, M_FINAL)
        assert run.targets == rep.targets.tolist() and run.powers == rep.powers.tolist(), label
        assert np.array_equal(gains, want), label
        assert rep.max_unilateral_gain == float(np.max(np.maximum(want, 0.0), initial=0.0)), label
        positive += rep.max_unilateral_gain > 0
    assert positive >= 10  # unsettled runs certify real deviations


def test_certificate_scores_price_deviations_like_oracle(paper9_report, paper9_scen):
    profile = copy_profile(paper9_report)
    profile.prices[::2] *= 1.1  # off the closed-form optimum
    gains = unilateral_gains(profile, paper9_scen, M_FINAL)
    assert np.array_equal(gains, unilateral_gains_oracle(profile, paper9_scen, M_FINAL))
    assert np.all(gains[::2] > 0) and np.all(gains[1::2] == 0.0)


def test_certificate_reuses_run_contexts(monkeypatch):
    counts = {"whole_profile": 0, "started": 0, "min_power_for_rate": 0}
    inside = False
    original_gains = _Run._gains

    def gains(run, *args, **kwargs):
        nonlocal inside
        unstarted = run.inflow.count(-1)
        inside = True
        try:
            return original_gains(run, *args, **kwargs)
        finally:
            inside = False
            counts["started"] += unstarted - run.inflow.count(-1)

    def counted(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += inside
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(_Run, "_gains", gains)
    # the whole-profile scorers: every rate from the next-hop vector, and the chain-termination defect
    monkeypatch.setattr(radio, "transmission_rates", counted("whole_profile", radio.transmission_rates))
    monkeypatch.setattr(routing, "reach_defect", counted("whole_profile", routing.reach_defect))
    monkeypatch.setattr(radio, "min_power_for_rate", counted("min_power_for_rate", radio.min_power_for_rate))
    rep = solve_stackelberg(paper9_scenario(7))
    assert rep.converged and rep.max_unilateral_gain == 0.0
    # the last round moved nothing, so every best response is the current
    # strategy, ranked from the links each device scored on its last turn
    assert counts == {"whole_profile": 0, "started": 0, "min_power_for_rate": 0}
    # an unsettled run of `certificate_runs`: devices whose best response
    # moves are scored against their current link, still from the run's terms
    scen = dataclasses.replace(random_scenario(9, 1, RELAY_SPEC), I_d=0.2)
    rep = solve_stackelberg(scen, max_iter=1)
    assert rep.max_unilateral_gain > 1.0 and not rep.converged
    assert counts["whole_profile"] == 0 and counts["started"] == 0


def paper9_relaying_profile():
    """paper9 seed 7 at its closed-form prices and floor powers, with
    device 1 relaying to device 2 and device 4 to device 3 (1-based)."""
    scen = paper9_scenario(7)
    profile = default_init(scen)
    profile.targets[0], profile.targets[3] = 1, 2
    return scen, profile


def test_current_link_scores_without_a_catch_up():
    scen, profile = paper9_relaying_profile()
    demand = best_response_demand(profile.prices, scen)
    for i in range(scen.n_devices):
        profit, rho = _Run(profile, demand, scen, 50).current(i)
        assert (profit, rho) == caught_up_run(i, profile, demand, scen).current(i)
        want = matrix_value(i, profile.prices, profile.targets, profile.powers, demand, scen, M_FINAL)
        assert (profit + M_FINAL * rho, rho) == want


def test_moved_price_deviation_scores_no_link(monkeypatch):
    scen, profile = paper9_relaying_profile()
    profile.prices[0] *= 1.1  # the relaying device 1, off its closed-form price
    want = unilateral_gains_oracle(profile, scen, M_FINAL)
    calls = {"link_deviations": 0, "price_deviations": 0}
    inside = False
    original_gains, original_power = _Run._gains, radio.min_power_for_rate

    def gains(run, *args, **kwargs):
        nonlocal inside
        inside = True
        try:
            return original_gains(run, *args, **kwargs)
        finally:
            inside = False

    def counted(*args, **kwargs):
        calls["link_deviations" if inside else "price_deviations"] += 1
        return original_power(*args, **kwargs)

    monkeypatch.setattr(_Run, "_gains", gains)
    monkeypatch.setattr(radio, "min_power_for_rate", counted)
    got = unilateral_gains(profile, scen, M_FINAL)
    assert calls["price_deviations"] == 0 and calls["link_deviations"] > 0
    assert np.array_equal(got, want) and got[0] > 0


def test_certificate_rejects_a_current_link_at_rate_0(paper9_report, paper9_scen):
    # device 0 relays through device 1 at a power whose rate rounds to 0
    profile = copy_profile(paper9_report)
    profile.targets[0], profile.powers[0] = 1, 1e-300
    with pytest.raises(ValueError, match="device 0 "):
        unilateral_gains(profile, paper9_scen, M_FINAL)


def test_nonconvergence_is_reported_not_raised():
    scen = relayable_scenario()
    rep = solve_stackelberg(scen, max_iter=0)
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
    with pytest.raises(ValueError, match="^powers must be positive$"):
        StrategyProfile(np.ones(2), [1, 2], [1.0, 0.0])
    # integral floats are targets
    profile = StrategyProfile(np.ones(2), [1.0, 2.0], [1.0, 1e-300])
    assert profile.targets.dtype.kind == "i"
    assert profile.targets.tolist() == [1, 2]


def exactness_runs():
    """(label, scenario, max_iter) runs of the dynamics: paper9 seeds 0-11
    and their device-reversed copies; random instances with n = 2..16
    under both specs at max_iter 1 and 8, mostly also reversed, and at
    max_iter 100 as given or reversed; and a relay-spec instance that
    cycles through all 100 rounds of its stages. The forward dynamics on
    a `reversed_devices` copy update the devices of the original in
    reverse order. Relay-spec runs with n > 12 are the slowest for the
    oracle, so they run fewer times."""
    runs = []
    for s in range(12):
        scen = paper9_scenario(s)
        runs += [(f"paper9 seed {s}", scen, 100), (f"paper9 seed {s} reversed", reversed_devices(scen), 100)]
    for n in range(2, 17):
        for label, spec in (("default", RandomSpec()), ("relay", RELAY_SPEC)):
            scen = random_scenario(n, seed=n, spec=spec)
            flipped = reversed_devices(scen)
            slow = label == "relay" and n > 12
            for max_iter in (1, 8):
                runs.append((f"{label} n={n}", scen, max_iter))
                if not (slow and max_iter == 8):
                    runs.append((f"{label} n={n} reversed", flipped, max_iter))
            if not slow:
                runs.append((f"{label} n={n}" + ("", " reversed")[n % 2], (scen, flipped)[n % 2], 100))
    runs.append(("relay n=6 seed 1", random_scenario(6, seed=1, spec=RELAY_SPEC), 100))
    return runs


def test_round_robin_equals_fresh_best_response_oracle():
    cfg = PenaltyConfig()
    runs = exactness_runs()
    cycled = 0
    for label, scen, max_iter in runs:
        got = settled_run(scen, cfg, max_iter, 50)
        want = round_robin_oracle(scen, cfg, max_iter, "forward", 50)
        where = (label, max_iter)
        assert np.array_equal(got[0].targets, want[0].targets), where
        assert np.array_equal(got[0].powers, want[0].powers), where
        assert np.array_equal(got[1], want[1]), where
        assert got[2:4] == want[2:], where
        cycled += max_iter == 100 and not got[3]
    assert len(runs) >= 120
    assert cycled >= 1


def _move(rng, scen, targets, powers, i):
    """One random move of a random device; returns the nodes whose
    co-target power it changes as device i sees them (none for i's own)."""
    n, ap = scen.n_devices, scen.ap
    k = int(rng.integers(n))
    old = int(targets[k])
    kind = rng.choice(["power", "target", "into_i", "out_of_i", "to_ap", "from_ap"])
    new = old
    if kind == "target":
        new = int(rng.choice([t for t in range(n + 1) if t != k]))
    elif kind == "into_i" and k != i:
        new = i
    elif kind == "out_of_i" and old == i:
        new = int(rng.choice([t for t in range(n + 1) if t not in (k, i)]))
    elif kind == "to_ap":
        new = ap
    elif kind == "from_ap" and old == ap:
        new = int(rng.choice([t for t in range(n) if t != k]))
    targets[k] = new
    if kind == "power" or rng.random() < 0.5:
        powers[k] = float(rng.uniform(1e-3, 1.0)) * scen.devices[k].p_max
    return set() if k == i else {old, new}


def test_relay_context_refresh_equals_fresh_context():
    rng = np.random.default_rng(4409)
    seen = dict.fromkeys(("inflow_changed", "ap_touched", "power_only", "own_move"), 0)
    for trial in range(60):
        n = int(rng.integers(2, 10))
        spec = RELAY_SPEC if trial % 2 else RandomSpec()
        scen = random_scenario(n, seed=int(rng.integers(1 << 31)), spec=spec)
        profile = random_profile(rng, scen)
        demand = best_response_demand(profile.prices, scen)
        i = int(rng.integers(n))
        run = caught_up_run(i, profile, demand, scen)
        targets, powers = profile.targets.tolist(), profile.powers.tolist()
        for _ in range(30):
            touched = set()
            for _ in range(int(rng.integers(1, 4))):
                before = (targets.count(i), list(targets), list(powers))
                touched |= _move(rng, scen, targets, powers, i)
                for k in range(n):  # the move, made through the run
                    if (targets[k], powers[k]) != (before[1][k], before[2][k]):
                        run.move(k, targets[k], powers[k])
                seen["inflow_changed"] += targets.count(i) != before[0]
                seen["ap_touched"] += scen.ap in touched
                seen["power_only"] += targets == before[1] and powers != before[2]
                seen["own_move"] += targets[i] != before[1][i]
            run._catch_up(i)
            fresh = caught_up_run(i, StrategyProfile(profile.prices, targets, powers), demand, scen)
            others = [j for j in range(scen.n_nodes) if j != i]  # no candidate targets i
            got, want = interference(run, i), interference(fresh, i)
            assert [got[j] for j in others] == [want[j] for j in others]
            assert run.links[i] == fresh.links[i]
            assert candidates(run, i) == candidates(fresh, i)
            resummed = [0.0] * scen.n_nodes
            for k in range(n):
                resummed[targets[k]] += scen.H[k, targets[k]] * powers[k]
            assert run.interference == resummed
            assert run.structure(i) == fresh.structure(i)
            ancestors = run.structure(i)[0]
            labels = [
                ENDS_AT_I if k == i or k in ancestors
                else ENDS_AT_AP if run.reaches_ap[k] else ENDS_IN_CYCLE
                for k in range(n)
            ]
            assert labels == chain_ends(targets, i, scen.ap)
    assert min(seen.values()) >= 20, seen


def test_solve_rescores_only_touched_links(monkeypatch):
    calls = 0
    original = radio.min_power_for_rate

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(radio, "min_power_for_rate", counted)
    solve_stackelberg(paper9_scenario(7))
    # rebuilding every candidate at every best response made 607 calls;
    # re-scoring only touched links made 166, before the two runs shared
    # their link terms
    assert 0 < calls <= 120


def test_solve_skips_best_responses_that_nothing_changed(monkeypatch):
    ranked = 0
    original = _Run.structure

    def counted(*args, **kwargs):
        nonlocal ranked
        ranked += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(_Run, "structure", counted)
    solve_stackelberg(paper9_scenario(7))
    # all 252 best responses ranked their links before an untouched device
    # returned its last answer; 169 rank with the skip
    assert 0 < ranked <= 170


def test_solve_solves_each_price_once(monkeypatch):
    calls = 0
    original = upper_level.price_best_response

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(upper_level, "price_best_response", counted)
    solve_stackelberg(paper9_scenario(7))
    # the certificate takes the run's start prices
    assert calls == 9


@pytest.mark.parametrize(
    "far, h_relay", [(1e30, 10.0), (3.0, 5e-324)], ids=["rate_zero", "gain_zero"]
)
def test_relay_br_drops_zero_rate_relay_links(far, h_relay):
    # the slow relay 1 leaves device 0 a deadline window, but sits so far
    # off that its rate rounds to 0, or its raw gain is so small that the
    # effective gain h / d**2 underflows to 0
    h = np.full((3, 3), 10.0)
    h[0, 1] = h[1, 0] = h_relay
    scen = make_scenario([[1.0, 0.0], [far, 0.0], [0.0, 0.0]], h=h,
                         devices=relayable_scenario().devices)
    assert (scen.H[0, 1] == 0.0) == (h_relay < 1.0)
    profile = default_init(scen)
    demand = best_response_demand(profile.prices, scen)
    run = caught_up_run(0, profile, demand, scen)
    assert routing.processing_times(demand, scen)[1] > routing.processing_times(demand, scen)[0]
    assert run.links[0][1] is None
    assert [c[0] for c in candidates(run, 0)] == [scen.ap]
    assert fresh_best_response(0, profile, demand, scen, M_FINAL)[0] == scen.ap
    with pytest.raises(ValueError, match="non-positive rate"):
        value(run, 0, 1, scen.devices[0].p_max, M_FINAL)


def test_relay_br_drops_relay_links_whose_deadline_power_rounds_to_0():
    # so small an update meets the deadline at a power that rounds to 0
    scen = dataclasses.replace(relayable_scenario(), I_d=1e-300)
    profile = default_init(scen)
    demand = best_response_demand(profile.prices, scen)
    T_s = routing.processing_times(demand, scen)
    assert T_s[1] > T_s[0]
    assert min_power_for_rate(0, 1, scen.I_d / (T_s[1] - T_s[0]), 0.0, scen) == 0.0
    run = caught_up_run(0, profile, demand, scen)
    assert run.links[0][1] is None
    assert [c[0] for c in candidates(run, 0)] == [scen.ap]


def test_round_robin_logs_one_debug_record_per_round(caplog):
    with caplog.at_level("DEBUG", logger="fedrelay.upper_level"):
        report = solve_stackelberg(paper9_scenario(7))
    rounds = [r.getMessage() for r in caplog.records if r.levelname == "DEBUG"]
    assert len(rounds) == report.iterations
    assert all("round" in m and "of 9 devices changed" in m for m in rounds)
    assert rounds[-1].endswith(f"round {report.iterations}: 0 of 9 devices changed")
