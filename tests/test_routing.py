import itertools

import numpy as np
import pytest

from fedrelay.routing import (
    adjacency_to_targets,
    check_acyclic_reach,
    check_ap_connected,
    check_single_link,
    check_timing,
    feasible,
    plan_to_indicator,
    reach_defect,
    routing_adjacency,
    routing_lines,
    timing_violations,
)
from fedrelay.scenario import RELAY_SPEC, random_scenario
from fedrelay.upper_level import StrategyProfile
from support import (
    make_scenario,
    power_matrix,
    reach_defect_matrix,
    timing_violations_oracle,
    walk_reaches_ap,
)

# published routing map for the 9-device benchmark: 1-based child -> relay
TABLE_ROUTING = {1: "N_D", 2: "N_D", 3: "7", 4: "N_D", 5: "4", 6: "4", 7: "N_D", 8: "N_D", 9: "N_D"}


def table_targets(n=9):
    return adjacency_to_targets({str(k): v for k, v in TABLE_ROUTING.items()}, n)


def grid_positions(n):
    return [[float(i), float(i % 3)] for i in range(n + 1)]


def test_profile_indicator_single_entry():
    profile = StrategyProfile([1.0, 1.0], [1, 2], [0.5, 1.0])
    I = plan_to_indicator(profile.targets, 3)
    assert I.dtype == np.int64 and I.shape == (3, 3)
    assert I[0, 1] == 1 and I[1, 2] == 1
    assert I.sum() == 2
    with pytest.raises(ValueError, match="^powers must be positive$"):
        StrategyProfile([1.0, 1.0], [1, 2], [0.5, 0.0])


def test_profile_rejects_zero_powers_keeps_denormal():
    with pytest.raises(ValueError, match="^powers must be positive$"):
        StrategyProfile([1.0] * 3, [3, 3, 0], [0.0] * 3)
    profile = StrategyProfile([1.0], [1], [1e-300])
    I = plan_to_indicator(profile.targets, 2)
    assert I[0, 1] == 1
    assert np.array_equal(I, plan_to_indicator([1], 2))


def test_profile_rejects_negative_power():
    for power in (-1.0, -0.0, -5e-324):
        with pytest.raises(ValueError, match="^powers must be positive$"):
            StrategyProfile([1.0], [1], [power])


def test_single_link_on_table_routing():
    I = plan_to_indicator(table_targets(), 10)
    assert check_single_link(I)


def test_single_link_violations():
    I = plan_to_indicator(table_targets(), 10)
    I[0, 3] = 1  # second outgoing link
    assert not check_single_link(I)
    I = plan_to_indicator(table_targets(), 10)
    I[2, 2], I[2, 6] = 1, 0  # self-loop
    assert not check_single_link(I)


def test_ap_connected_cases():
    assert check_ap_connected(plan_to_indicator(table_targets(), 10))
    # everyone relays: 0 <- all others, 0 -> 1; nobody reaches the access point
    targets = np.zeros(4, dtype=int)
    targets[0] = 1
    I = plan_to_indicator(targets, 5)
    assert not check_ap_connected(I)
    assert not check_acyclic_reach(I)
    single = plan_to_indicator(np.array([1]), 2)
    assert check_ap_connected(single)


def test_acyclic_reach_on_table_routing():
    assert check_acyclic_reach(plan_to_indicator(table_targets(), 10))


def test_acyclic_reach_rejects_two_cycle():
    targets = table_targets()
    targets[2], targets[6] = 6, 2  # 3 -> 7 and 7 -> 3, 1-based
    assert not check_acyclic_reach(plan_to_indicator(targets, 10))


def test_acyclic_reach_max_depth_chain():
    for n in (1, 3, 6, 9):
        targets = np.arange(1, n + 1)  # 0 -> 1 -> ... -> n-1 -> AP
        assert check_acyclic_reach(plan_to_indicator(targets, n + 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reachability_exhaustive_against_walk_oracle(n):
    # all n-device next-hop functions, self-loops included
    for plan in itertools.product(range(n + 1), repeat=n):
        targets = np.array(plan)
        I = plan_to_indicator(targets, n + 1)
        assert check_acyclic_reach(I) == walk_reaches_ap(targets, n)


def test_reach_defect_equals_boolean_power_oracle(rng):
    plans = 0
    for n in (1, 2, 3, 4):
        for plan in itertools.product(range(n + 1), repeat=n):
            I = plan_to_indicator(np.array(plan), n + 1)
            assert reach_defect(I) == reach_defect_matrix(I)
            plans += 1
    assert plans == 700
    # arbitrary 0/1 matrices: empty rows, multi-link rows, access-point-row entries
    kinds = {"empty": 0, "multi": 0, "ap_row": 0}
    for _ in range(3000):
        m = int(rng.integers(2, 12))
        I = (rng.random((m, m)) < rng.uniform(0.0, 0.6)).astype(np.int64)
        degrees = I[:-1].sum(axis=1)
        kinds["empty"] += bool(np.any(degrees == 0))
        kinds["multi"] += bool(np.any(degrees > 1))
        kinds["ap_row"] += bool(I[-1].any())
        assert reach_defect(I) == reach_defect_matrix(I)
    assert min(kinds.values()) >= 500, kinds


def test_structural_accept_iff_forest_rooted_at_ap(rng):
    for _ in range(200):
        n = int(rng.integers(1, 6))
        targets = rng.integers(0, n + 1, size=n)
        I = plan_to_indicator(targets, n + 1)
        structural = (
            check_single_link(I) and check_ap_connected(I) and check_acyclic_reach(I)
        )
        is_forest = walk_reaches_ap(targets, n) and np.all(targets != np.arange(n))
        assert structural == bool(is_forest)


def timing_scenario():
    # device 0 relays through device 1; r_p = 1 makes T_s equal the demand
    return make_scenario(grid_positions(2), r_p=1.0, T_a=0.01, I_d=0.1)


def test_timing_direct_is_vacuous():
    scen = timing_scenario()
    targets = np.array([2, 2])
    I = plan_to_indicator(targets, 3)
    ok = check_timing(I, np.array([100.0, 0.001]), np.array([1e-9, 1e-9]), scen)
    assert ok.all()


def test_timing_arithmetic_violation():
    scen = timing_scenario()
    targets = np.array([1, 2])
    I = plan_to_indicator(targets, 3)
    demand = np.array([1.0, 1.05])  # T_s = demand at r_p = 1
    rates = np.array([1.0, 1.0])  # transfer time I_d / r = 0.1
    ok = check_timing(I, demand, rates, scen)
    assert not ok[0]  # 1.0 + 0.1 > 1.05
    assert ok[1]
    v = timing_violations(I, demand, rates, scen)
    assert v[0] == pytest.approx(0.05, abs=1e-12)
    demand = np.array([1.0, 1.2])
    assert check_timing(I, demand, rates, scen).all()


def test_timing_counts_inflow_delay():
    scen = make_scenario(grid_positions(3), r_p=1.0, T_a=0.2, I_d=0.1)
    # devices 0 and 2 both feed device 1, which transmits direct and so
    # faces no deadline of its own; each child has inflow 0
    targets = np.array([1, 3, 1])
    I = plan_to_indicator(targets, 4)
    demand = np.array([1.0, 1.15, 1.0])
    rates = np.array([1.0, 1.0, 1.0])
    assert check_timing(I, demand, rates, scen).all()
    # now give device 0 a child: 2 -> 0, adding T_a * 1 = 0.2 to 0's clock
    targets2 = np.array([1, 3, 0])
    I2 = plan_to_indicator(targets2, 4)
    v = timing_violations(I2, demand, rates, scen)
    assert v[0] == pytest.approx(1.0 + 0.2 + 0.1 - 1.15, abs=1e-12)
    assert not check_timing(I2, demand, rates, scen)[0]


def test_timing_zero_rate_relayed_signals():
    scen = timing_scenario()
    I = plan_to_indicator(np.array([1, 2]), 3)
    with pytest.raises(ZeroDivisionError):
        check_timing(I, np.array([1.0, 2.0]), np.array([0.0, 1.0]), scen)


def test_timing_violations_equal_per_device_oracle():
    rng = np.random.default_rng(5150)
    raised = relayed = 0
    for trial in range(300):
        n = int(rng.integers(1, 10))
        scen = random_scenario(n, seed=trial, spec=RELAY_SPEC)
        # rows with zero, one (self-loops and direct links included) or two links
        I = np.zeros((n + 1, n + 1), dtype=np.int64)
        for i in range(n):
            I[i, rng.choice(n + 1, size=rng.choice([0, 1, 1, 1, 2]), replace=False)] = 1
        demand = rng.uniform(0.0, 3.0, size=n)
        rates = rng.uniform(0.5, 50.0, size=n)
        if trial % 5 == 0:
            rates[rng.integers(n)] = 0.0
        try:
            want = timing_violations_oracle(I, demand, rates, scen)
        except ZeroDivisionError as exc:
            with pytest.raises(ZeroDivisionError, match=f"^{exc}$"):
                timing_violations(I, demand, rates, scen)
            raised += 1
            continue
        got = timing_violations(I, demand, rates, scen)
        assert got.tobytes() == want.tobytes()
        relayed += np.count_nonzero(want)
    assert raised >= 20 and relayed >= 300


def test_timing_monotone_in_relay_processing_time(rng):
    scen = timing_scenario()
    I = plan_to_indicator(np.array([1, 2]), 3)
    rates = np.array([0.5, 0.5])
    for _ in range(50):
        demand = rng.uniform(0.01, 3.0, size=2)
        base = check_timing(I, demand, rates, scen)[0]
        longer = demand.copy()
        longer[1] += rng.uniform(0.0, 2.0)
        if base:  # raising the relay's processing time never breaks a met deadline
            assert check_timing(I, longer, rates, scen)[0]


def test_feasible_reports_each_violation():
    scen = make_scenario(grid_positions(3), r_p=1.0, T_a=0.01, I_d=0.1)
    targets = np.array([3, 3, 3])
    I = plan_to_indicator(targets, 4)
    demand = np.ones(3)
    rates = np.ones(3)
    ok, violations = feasible(I, demand, rates, scen)
    assert ok and violations == []

    # two outgoing links for device 0
    I2 = I.copy()
    I2[0, 1] = 1
    ok, violations = feasible(I2, demand, rates, scen)
    assert not ok
    assert any(v["constraint"] == "single_link" and v["device"] == 0 for v in violations)

    # self-loop
    I3 = I.copy()
    I3[1, 1], I3[1, 3] = 1, 0
    ok, violations = feasible(I3, demand, rates, scen)
    assert not ok
    assert any(v["constraint"] == "self_loop" for v in violations)
    assert any(v["constraint"] == "reachability" for v in violations)

    # nobody direct
    I4 = plan_to_indicator(np.array([1, 2, 0]), 4)
    ok, violations = feasible(I4, demand, rates, scen)
    assert not ok
    assert any(v["constraint"] == "ap_connected" for v in violations)

    # timing
    I5 = plan_to_indicator(np.array([1, 3, 3]), 4)
    ok, violations = feasible(I5, demand, np.full(3, 1.0), scen)
    assert not ok
    timing = [v for v in violations if v["constraint"] == "timing"]
    assert timing and timing[0]["device"] == 0 and timing[0]["violation"] > 0


def test_feasible_respects_tolerance():
    scen = timing_scenario()
    I = plan_to_indicator(np.array([1, 2]), 3)
    demand = np.array([1.0, 1.1])  # violation exactly I_d / r - 0.1 = 0
    rates = np.array([1.0, 1.0])
    ok, _ = feasible(I, demand, rates, scen, tol=1e-9)
    assert ok


def test_routing_lines_table_format():
    lines = routing_lines(table_targets(), 9)
    assert lines[0] == "1 -> N_D"
    assert lines[2] == "3 -> 7 -> N_D"
    assert lines[4] == "5 -> 4 -> N_D"
    assert all(line.endswith("N_D") for line in lines)


def test_routing_lines_marks_cycles():
    lines = routing_lines(np.array([1, 0]), 2)
    assert all(line.endswith("!") for line in lines)


def test_adjacency_round_trip():
    targets = table_targets()
    adj = routing_adjacency(targets, 9)
    assert adj == {str(k): v for k, v in TABLE_ROUTING.items()}
    assert np.array_equal(adjacency_to_targets(adj, 9), targets)


def test_power_matrix_layout():
    # the full-matrix oracle input of `support.rates_from_matrix`
    P = power_matrix(np.array([2, 0]), np.array([0.5, 1.5]), 3)
    assert P[0, 2] == 0.5
    assert P[1, 0] == 1.5
    assert P.sum() == 2.0


def test_solver_output_meets_deadlines(paper9_scen, paper9_report):
    rep = paper9_report
    I = plan_to_indicator(rep.targets, paper9_scen.n_nodes)
    ok = check_timing(I, rep.demand, rep.rates, paper9_scen, tol=1e-9)
    assert ok.all()
    feas, violations = feasible(I, rep.demand, rep.rates, paper9_scen, tol=1e-9)
    assert feas, violations
