"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import itertools
import json
import math
import time

import numpy as np

from fedrelay import routing
from fedrelay.cli import main
from fedrelay.lower_level import best_response_demand, price_floor
from fedrelay.radio import transmission_rates
from fedrelay.scenario import build_channel_matrix, paper9_scenario, random_scenario
from fedrelay.upper_level import penalty_rho, price_best_response
from support import (
    grid_argmax_demand,
    grid_argmax_price,
    grouped_rates_oracle,
    make_device,
    make_scenario,
    walk_reaches_ap,
)

BENCH_SEED = 7  # documented seed for the end-to-end benchmark run


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {text}")


def test_criterion_1_follower_closed_form_optimality():
    start = time.perf_counter()
    scen = paper9_scenario(BENCH_SEED)
    rng = np.random.default_rng(101)
    _, b, c = scen.accuracy_coeffs()
    s_max = scen.param("s_max")
    q_lo = price_floor(scen)
    for _ in range(100):
        q = rng.uniform(q_lo, c * b)
        s_star = best_response_demand(q, scen)
        for i in range(scen.n_devices):
            grid_best = grid_argmax_demand(i, q[i], scen, step=1e-6)
            assert abs(s_star[i] - grid_best) <= 1e-5
        interior = (s_star > 0) & (s_star < s_max)
        residual = np.abs(q - c * b * np.exp(-c * s_star))
        assert np.all(residual[interior] <= 1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"demand response matches 1e-6 grid argmax on 100 draws ({elapsed:.2f}s)")


def test_criterion_2_rate_formula_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    for _ in range(500):
        n = int(rng.integers(3, 7))
        scen = random_scenario(n, seed=int(rng.integers(1 << 31)))
        H = build_channel_matrix(scen)
        targets = np.array([rng.choice([t for t in range(n + 1) if t != i]) for i in range(n)])
        powers = rng.uniform(0.05, 10.0, size=n)
        got = transmission_rates(targets, powers, scen)
        want = grouped_rates_oracle(targets, powers, H, scen)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, f"matrix-form rates equal group-by-relay oracle on 500 instances ({elapsed:.2f}s)")


def test_criterion_3_reachability_exhaustive():
    start = time.perf_counter()
    n = 4
    count = 0
    for plan in itertools.product(range(n + 1), repeat=n):
        targets = np.array(plan)
        I = routing.plan_to_indicator(targets, n + 1)
        assert routing.check_acyclic_reach(I) == walk_reaches_ap(targets, n)
        count += 1
    assert count == 625
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(3, f"boolean-power check equals walk oracle on all 625 plans ({elapsed:.2f}s)")


def test_criterion_4_penalty_feasibility_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    total = 0
    seen = {True: 0, False: 0}

    def assert_equivalence(scen, I, demand, rates):
        ok, _ = routing.feasible(I, demand, rates, scen)
        rho_zero = all(
            penalty_rho(i, I, demand, rates, scen) == 0.0 for i in range(scen.n_devices)
        )
        assert rho_zero == ok
        return ok

    # random mixed profiles
    for _ in range(700):
        n = int(rng.integers(1, 6))
        scen = random_scenario(n, seed=int(rng.integers(1 << 31)))
        targets = np.array([rng.choice([t for t in range(n + 1) if t != i]) for i in range(n)])
        powers = rng.uniform(0.05, 10.0, size=n)
        demand = rng.uniform(0.0, scen.param("s_max"))
        rates = transmission_rates(targets, powers, scen)
        I = routing.plan_to_indicator(targets, n + 1)
        seen[assert_equivalence(scen, I, demand, rates)] += 1
        total += 1

    # targeted single-constraint injections on a feasible base
    for _ in range(60):
        n = int(rng.integers(2, 6))
        scen = random_scenario(n, seed=int(rng.integers(1 << 31)))
        targets = np.full(n, n, dtype=int)  # all direct: feasible
        powers = rng.uniform(0.5, 10.0, size=n)
        demand = rng.uniform(0.0, scen.param("s_max"))
        rates = transmission_rates(targets, powers, scen)
        base = routing.plan_to_indicator(targets, n + 1)
        assert assert_equivalence(scen, base, demand, rates)
        total += 1

        def broken_variants():
            extra = base.copy()
            extra[0, 1] = 1  # second outgoing link
            yield extra, 0
            loop = base.copy()
            loop[0, 0], loop[0, n] = 1, 0  # self-loop
            yield loop, 0
            if n >= 2:
                cyc = base.copy()  # 0 -> 1 -> 0 cycle
                cyc[0, n], cyc[1, n] = 0, 0
                cyc[0, 1], cyc[1, 0] = 1, 1
                yield cyc, 0
            relayed = base.copy()  # 0 -> 1 with a hopeless deadline
            relayed[0, n], relayed[0, 1] = 0, 1
            yield relayed, 0

        for I_bad, device in broken_variants():
            zero_demand = np.zeros(n)  # T_s = 0 guarantees the deadline breaks
            rho = penalty_rho(device, I_bad, zero_demand, rates, scen)
            assert rho < 0.0
            ok, _ = routing.feasible(I_bad, zero_demand, rates, scen)
            assert not ok
            total += 1

    assert total >= 1000
    assert min(seen.values()) > 20
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(4, f"penalty == 0 iff feasible on {total} profiles ({elapsed:.2f}s)")


def test_criterion_5_price_best_response_oracle():
    scen = paper9_scenario(BENCH_SEED)
    q_lo = price_floor(scen)
    for i in range(scen.n_devices):
        q_star = price_best_response(i, scen)
        grid_best = grid_argmax_price(i, scen, step=1e-6, q_lo=q_lo)
        assert abs(q_star - grid_best) <= 1e-5
    devices = (make_device(c_p=0.0, c=15.28, b=9.78),)
    free = make_scenario([[0.0, 0.0], [1.0, 0.0]], devices=devices)
    q_star = price_best_response(0, free)
    assert abs(q_star - 15.28 * 9.78 / math.e) <= 1e-10
    report(5, "price best response matches 1e-6 grid argmax on all 9 devices")


def test_criterion_6_energy_monotonicity():
    rng = np.random.default_rng(606)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        scen = random_scenario(n, seed=int(rng.integers(1 << 31)))
        H = build_channel_matrix(scen)
        i = int(rng.integers(n))
        target = int(rng.choice([t for t in range(n + 1) if t != i]))
        interference = float(rng.uniform(0.0, 5.0))
        d = scen.devices[i]
        grid = np.linspace(d.p_max / 1000, d.p_max, 1000)
        rate = d.w * np.log2(1.0 + H[i, target] * grid / (interference + scen.sigma2))
        assert np.all(np.diff(grid / rate) >= 0.0)
    report(6, "power per rate nondecreasing on 100 random single links")


def test_criterion_7_end_to_end_benchmark(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "bench"
    code = main(["solve", "--preset", "paper9", "--seed", str(BENCH_SEED), "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    rep = payload["report"]
    assert rep["converged"] is True
    assert rep["max_unilateral_gain"] <= 1e-6

    scen = paper9_scenario(BENCH_SEED)
    targets = np.asarray(rep["targets"])
    demand = np.asarray(rep["demand"])
    rates = np.asarray(rep["rates"])
    I = routing.plan_to_indicator(targets, scen.n_nodes)
    feas, violations = routing.feasible(I, demand, rates, scen, tol=1e-9)
    assert feas, violations
    assert (targets == scen.ap).sum() >= 1
    assert routing.check_timing(I, demand, rates, scen, tol=1e-9).all()

    # diagnostic only: relays versus their children's demands when timing binds
    for j in range(scen.n_devices):
        children = [i for i in range(scen.n_devices) if targets[i] == j]
        for i in children:
            rel = "exceeds" if demand[j] > demand[i] else "does not exceed"
            print(f"  diagnostic: relay {j + 1} demand {rel} child {i + 1} demand")
    if not any(t != scen.ap for t in targets):
        print("  diagnostic: all devices transmit directly at this position seed")

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(7, f"benchmark run converged with feasible routing ({elapsed:.2f}s)")


def test_criterion_8_byte_determinism(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        code = main(["solve", "--preset", "paper9", "--seed", str(BENCH_SEED), "--out", str(out)])
        assert code == 0
    for name in ("routing.txt", "prices.csv", "demands.csv", "rates.csv",
                 "profits.csv", "equilibrium.csv", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    report(8, "repeated runs are byte-identical across all artifacts")
