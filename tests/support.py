"""Shared test helpers: independent oracles and tiny scenario builders.

The oracles deliberately avoid the library's own code paths: rates are
regrouped with explicit loops or full-matrix algebra, argmaxes come from
dense grids, and reachability is checked by walking the next-hop
function or by boolean matrix powers. The round-robin and certificate
oracles rebuild every best response from scratch. The whole-profile
scorers `profit_terms` and `matrix_value` recompute every rate, the
indicator of the positive-power links and the penalty `routing.feasible`
reports with; the library scores with its run's O(1) link terms instead.
`device_profit`, `reduced_profit` and `penalized_profit` score through
them, for the tests that hold the dynamics against exhaustive scans. The
enumerator `pure_equilibria` lists every pure equilibrium of a small
scenario, the ground truth a solve's profile must belong to.
`default_rng_scenario` builds a random scenario with numpy's own
`default_rng`, the reference for the library's pure-Python stream;
`paper9_per_call` builds paper9 the same way, its nine devices rebuilt on
every call, the reference for the library's shared device table.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from fedrelay import lower_level, radio
from fedrelay import scenario as sc
from fedrelay.scenario import AccuracyModel, DeviceParams, RandomSpec, Scenario
from fedrelay.upper_level import (
    _P_TOL,
    StrategyProfile,
    _Run,
    default_init,
    penalty_rho,
    price_best_response,
)


def make_device(
    c_p=0.005,
    c_t=50.0,
    r_p=80.0,
    T_a=0.01,
    w=1.0,
    a=10.0,
    b=10.0,
    c=12.0,
    s_max=None,
    q_max=None,
    p_max=10.0,
) -> DeviceParams:
    if q_max is None:
        q_max = c * b
    if s_max is None:
        s_max = math.log(1e6) / c
    return DeviceParams(
        c_p=c_p, c_t=c_t, r_p=r_p, T_a=T_a, w=w,
        accuracy=AccuracyModel(a=a, b=b, c=c),
        s_max=s_max, q_max=q_max, p_max=p_max,
    )


def make_scenario(positions, devices=None, h=10.0, alpha=2.0, sigma2=1.0,
                  I_d=0.1, c_a=0.0096, **device_kwargs) -> Scenario:
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0] - 1
    if devices is None:
        devices = tuple(make_device(**device_kwargs) for _ in range(n))
    return Scenario(
        devices=devices, positions=positions, h=np.asarray(h),
        alpha=alpha, sigma2=sigma2, I_d=I_d, c_a=c_a,
    )


def exp_series(x: float, terms: int = 80) -> float:
    """Taylor-series exponential, summed term by term."""
    total, term = 0.0, 1.0
    for k in range(1, terms + 1):
        total += term
        term *= x / k
    return total


def walk_reaches_ap(targets, n: int) -> bool:
    """Follow each device's next-hop chain; true iff every chain hits the
    access point within n hops (cycles and self-loops therefore fail)."""
    ap = n
    for i in range(n):
        node = i
        for _ in range(n):
            node = int(targets[node])
            if node == ap:
                break
        if node != ap:
            return False
    return True


# Where a device's forwarding chain ends once device i's own link is cut.
ENDS_AT_AP, ENDS_AT_I, ENDS_IN_CYCLE = 0, 1, 2


def chain_ends(targets, i: int, ap: int) -> list[int]:
    """Label each device by where its forwarding chain ends when device i
    is a terminal: the access point, device i, or a cycle avoiding i.
    Device i itself is labelled ENDS_AT_I. Walks every chain from
    scratch."""
    n = len(targets)
    walking = -1  # label of the nodes on the walk in progress
    ends: list[int | None] = [None] * n
    ends[i] = ENDS_AT_I
    for k in range(n):
        path = []
        node = k
        while node != ap and ends[node] is None:
            ends[node] = walking
            path.append(node)
            node = int(targets[node])
        end = ENDS_AT_AP if node == ap else ends[node]
        if end == walking:
            end = ENDS_IN_CYCLE
        for m in path:
            ends[m] = end
    return ends


def power_matrix(targets, powers, n_nodes: int) -> np.ndarray:
    """Full (n+1)x(n+1) power matrix of a next-hop vector: powers[i] at (i, targets[i])."""
    P = np.zeros((n_nodes, n_nodes))
    P[np.arange(len(targets)), np.asarray(targets, dtype=int)] = powers
    return P


def rates_from_matrix(P, scen) -> np.ndarray:
    """Per-device rates from a full (n+1)x(n+1) power matrix.

    Numerator: own received power at the chosen relay, sum_j H_ij P_ij,
    with H the scenario's gain matrix.
    Denominator: the received powers of the other devices aiming at that
    relay, summed from zero in ascending device order, plus noise. The
    relay grouping is carried by the matrix product I I^T, with I the
    indicator of positive entries: devices k and i share a relay iff
    (I I^T)_ki > 0. The rate is w * log2(1 + SINR) by `math.log2`, the
    library's arithmetic. Devices with an all-zero power row transmit
    nothing; their rate is NaN.
    """
    P = np.asarray(P, dtype=float)
    n = scen.n_devices
    I = (P > 0).astype(np.int64)
    shares = I @ I.T
    own = np.einsum("ij,ij->i", scen.H, P).tolist()
    rates = np.full(n, np.nan)
    for i in range(n):
        if own[i] == 0.0:
            continue
        interference = 0.0
        for k in range(n):
            if k != i and shares[k, i] > 0:
                interference += own[k]
        rates[i] = scen.devices[i].w * math.log2(1.0 + own[i] / (interference + scen.sigma2))
    return rates


def _absorbing(I) -> np.ndarray:
    """Copy of I with a self-loop at the access point, so chains that
    arrive there stay there under repeated multiplication."""
    J = np.asarray(I, dtype=np.int64).copy()
    J[-1, -1] = 1
    return J


def bool_matrix_power(I, k: int) -> np.ndarray:
    """k-step reachability matrix over the boolean (OR/AND) semiring."""
    if k < 1:
        raise ValueError("exponent must be >= 1")
    result = np.asarray(I, dtype=np.int64).copy()
    base = np.asarray(I, dtype=np.int64)
    for _ in range(k - 1):
        result = (result @ base > 0).astype(np.int64)
    return result


def all_at_ap_matrix(n_nodes: int) -> np.ndarray:
    """Matrix every feasible plan's reachability power must equal: each
    row's single 1 sits in the access-point column."""
    M = np.zeros((n_nodes, n_nodes), dtype=np.int64)
    M[:, -1] = 1
    return M


def reach_defect_matrix(I) -> float:
    """Squared Frobenius distance of the boolean n-th power of I (access
    point absorbing) from the all-chains-at-access-point matrix."""
    I = np.asarray(I)
    n = I.shape[0] - 1
    reach = bool_matrix_power(_absorbing(I), n)
    return float(((reach - all_at_ap_matrix(I.shape[0])) ** 2).sum())


def grouped_rates_oracle(targets, powers, H, scen) -> np.ndarray:
    """Rates by explicit relay grouping: for each device, sum the received
    powers of the other devices aiming at the same relay."""
    n = scen.n_devices
    rates = np.zeros(n)
    for i in range(n):
        m = int(targets[i])
        own = H[i, m] * powers[i]
        interference = 0.0
        for k in range(n):
            if k != i and int(targets[k]) == m:
                interference += H[k, m] * powers[k]
        sinr = own / (interference + scen.sigma2)
        rates[i] = scen.devices[i].w * math.log2(1.0 + sinr)
    return rates


def timing_violations_oracle(I, s, rates, scen) -> np.ndarray:
    """Arrival-deadline violation of each device, one device at a time
    from its row and column of I, in Python floats: 0 unless the row has
    a single link to another device; ZeroDivisionError for such a device
    without a positive rate."""
    n = scen.n_devices
    T_s = [float(s[k]) / scen.devices[k].r_p for k in range(n)]
    v = np.zeros(n)
    for i in range(n):
        row = [int(x) for x in I[i]]
        if sum(row) != 1 or row[n] or row[i]:
            continue
        if not rates[i] > 0:
            raise ZeroDivisionError(
                f"device {i} forwards through a relay but has no positive transmission rate"
            )
        inflow = sum(int(I[k][i]) for k in range(n))
        late = T_s[i] + scen.devices[i].T_a * inflow + scen.I_d / float(rates[i])
        v[i] = late - T_s[row.index(1)]
    return v


def profit_oracle(i, prices, targets, powers, demand, rates, scen) -> float:
    """Term-by-term device profit recomputation."""
    d = scen.devices[i]
    n, ap = scen.n_devices, scen.ap
    revenue = prices[i] * demand[i]
    energy = d.c_t * (scen.I_d / rates[i]) * powers[i]
    processing = d.c_p * demand[i]
    relay_revenue = scen.c_a * sum(1 for k in range(n) if k != i and int(targets[k]) == i)
    relay_fee = 0.0 if int(targets[i]) == ap else scen.c_a
    return revenue - energy - processing + relay_revenue - relay_fee


def accuracy(i: int, s: float, scen) -> float:
    """Accuracy of device i's update trained on s data units."""
    m = scen.devices[i].accuracy
    return m.a - m.b * math.exp(-m.c * s)


def copy_profile(x) -> StrategyProfile:
    """A StrategyProfile with copies of the prices, targets and powers of
    `x`, a StrategyProfile or an EquilibriumReport."""
    return StrategyProfile(x.prices.copy(), x.targets.copy(), x.powers.copy())


def profit_terms(i, prices, powers, demand, rates, I, scen) -> float:
    """Profit of device i: data revenue, minus transmission energy and
    processing costs, plus relay-service revenue, minus the relay fee
    when not transmitting directly."""
    n, ap = scen.n_devices, scen.ap
    d = scen.devices[i]
    revenue = prices[i] * demand[i]
    energy = radio.transmission_energy_cost(i, powers, rates, scen)
    processing = d.c_p * demand[i]
    relay_revenue = scen.c_a * float(I[:n, i].sum())
    relay_fee = scen.c_a * (1.0 - float(I[i, ap]))
    return float(revenue - energy - processing + relay_revenue - relay_fee)


def matrix_value(i, prices, targets, powers, demand, scen, M) -> tuple[float, float]:
    """Penalized profit and penalty of device i at an explicit demand
    iterate, scored on the whole profile: every rate from the next-hop
    vector, the indicator of the positive-power links, and the penalty
    `routing.feasible` reports with, chain termination included."""
    I = power_matrix(targets, powers, scen.n_nodes) > 0
    rates = radio.transmission_rates(targets, powers, scen)
    profit = profit_terms(i, prices, powers, demand, rates, I, scen)
    rho = penalty_rho(i, I, demand, rates, scen)
    return profit + M * rho, rho


def device_profit(i, profile, demand, scen) -> float:
    """Profit of device i at `profile` and `demand`, by `profit_terms`."""
    rates = radio.transmission_rates(profile.targets, profile.powers, scen)
    I = power_matrix(profile.targets, profile.powers, scen.n_nodes) > 0
    return profit_terms(i, profile.prices, profile.powers, demand, rates, I, scen)


def reduced_profit(i, profile, scen) -> float:
    """`device_profit` with the owner's demand response substituted in."""
    demand = lower_level.best_response_demand(profile.prices, scen)
    return device_profit(i, profile, demand, scen)


def penalized_profit(i, profile, M: float, scen) -> float:
    """Reduced profit plus M times the constraint penalty, by `matrix_value`."""
    demand = lower_level.best_response_demand(profile.prices, scen)
    val, _ = matrix_value(i, profile.prices, profile.targets, profile.powers, demand, scen, M)
    return val


def _concave_grid_argmax(f, lo: float, hi: float, fine_step: float) -> float:
    """Argmax of a strictly concave f over the grid {lo + k*fine_step}.

    Evaluated as a coarse pass plus a fine pass around the coarse winner;
    for concave f this equals the dense-grid argmax at a fraction of the
    evaluations.
    """
    n_fine = int(math.floor((hi - lo) / fine_step))
    stride = max(1, n_fine // 2000)
    ks = np.arange(0, n_fine + 1, stride)
    k0 = int(ks[np.argmax(f(lo + ks * fine_step))])
    k_lo = max(0, k0 - stride)
    k_hi = min(n_fine, k0 + stride)
    ks2 = np.arange(k_lo, k_hi + 1)
    return lo + int(ks2[np.argmax(f(lo + ks2 * fine_step))]) * fine_step


def grid_argmax_demand(i: int, q_i: float, scen, step: float = 1e-6) -> float:
    """Dense-grid argmax of the owner's per-device surplus f_i(s) - q*s."""
    d = scen.devices[i].accuracy
    s_max = scen.devices[i].s_max

    def surplus(s):
        return d.a - d.b * np.exp(-d.c * s) - q_i * s

    return _concave_grid_argmax(surplus, 0.0, s_max, step)


def grid_argmax_price(i: int, scen, step: float = 1e-6, q_lo: float | None = None) -> float:
    """Dense-grid argmax of the price-dependent profit (q - c_p)*ln(cb/q)/c."""
    dev = scen.devices[i]
    cb = dev.accuracy.c * dev.accuracy.b
    if q_lo is None:
        q_lo = step

    def margin(q):
        return (q - dev.c_p) * np.log(cb / q) / dev.accuracy.c

    return _concave_grid_argmax(margin, q_lo, cb, step)


def default_rng_positions(n: int, seed) -> np.ndarray:
    """The n + 1 node positions that `np.random.default_rng(seed)` draws
    uniform on [0, AREA]^2."""
    return np.random.default_rng(seed).uniform(0.0, sc.AREA, size=(n + 1, 2))


def default_rng_scenario(n: int, seed, spec: RandomSpec = RandomSpec()) -> Scenario:
    """`random_scenario(n, seed, spec)` drawn wholly by numpy: positions,
    then the six Gaussian columns, from one `np.random.default_rng(seed)`."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, sc.AREA, size=(n + 1, 2))
    dists = (spec.c_t, spec.c_p, spec.r_p, spec.T_a, spec.acc_a, spec.acc_c)
    cols = [np.maximum(rng.normal(mean, std, size=n), sc.DRAW_FLOOR).tolist() for mean, std in dists]
    q_lo = sc.PRICE_FLOOR_SCALE * min(a * c for a, c in zip(cols[4], cols[5]))
    devices = tuple(
        DeviceParams(
            c_t=c_t, c_p=c_p, r_p=r_p, T_a=T_a, w=sc.W, accuracy=AccuracyModel(a=a, b=a, c=c),
            s_max=math.log(c * a / q_lo) / c, q_max=c * a, p_max=sc.P_MAX,
        )
        for c_t, c_p, r_p, T_a, a, c in zip(*cols)
    )
    return Scenario(
        devices=devices, positions=positions, h=sc.H_GAIN, alpha=sc.ALPHA, sigma2=sc.SIGMA2,
        I_d=sc.I_D, c_a=sc.C_A,
    )


def paper9_per_call(seed) -> tuple[Scenario, float]:
    """`paper9_scenario(seed)` with its devices rebuilt from `_P9_COLUMNS` in
    numpy columns and its positions drawn by `np.random.default_rng(seed)`,
    and the price floor that numpy's minimum of the c * b column gives."""
    c_t, c_p, r_p, T_a, acc_a, acc_c = (np.asarray(col, dtype=float) for col in sc._P9_COLUMNS)
    cb = acc_c * acc_a
    q_lo = sc.PRICE_FLOOR_SCALE * float(np.min(cb))
    s_max = [math.log(x / q_lo) / c for x, c in zip(cb.tolist(), acc_c.tolist())]
    devices = tuple(
        DeviceParams(
            c_p=float(c_p[i]), c_t=float(c_t[i]), r_p=float(r_p[i]), T_a=float(T_a[i]), w=sc.W,
            accuracy=AccuracyModel(a=float(acc_a[i]), b=float(acc_a[i]), c=float(acc_c[i])),
            s_max=float(s_max[i]), q_max=float(cb[i]), p_max=sc.P_MAX,
        )
        for i in range(len(cb))
    )
    scen = Scenario(
        devices=devices, positions=default_rng_positions(len(devices), seed), h=sc.H_GAIN,
        alpha=sc.ALPHA, sigma2=sc.SIGMA2, I_d=sc.I_D, c_a=sc.C_A,
    )
    return scen, q_lo


def fresh_best_response(i, profile, demand, scen, M: float, power_grid: int = 50):
    """Device i's relay/power best response from a fresh run on `profile`."""
    return _Run(profile, demand, scen, power_grid).best(i, M)


def reversed_devices(scen) -> Scenario:
    """A copy of `scen` with its devices in reverse index order and the
    access point last, so the dynamics on the copy visit the devices of
    `scen` in reverse order."""
    perm = list(range(scen.n_devices - 1, -1, -1)) + [scen.ap]
    return dataclasses.replace(
        scen, devices=scen.devices[::-1], positions=scen.positions[perm], h=scen.h[np.ix_(perm, perm)]
    )


def settled_run(scen, cfg, max_iter: int, power_grid: int = 50):
    """`_Run.settle` from `default_init`: profile, demand, rounds, stable."""
    start = default_init(scen, power_grid)
    demand = lower_level.best_response_demand(start.prices, scen)
    run = _Run(start, demand, scen, power_grid)
    rounds, stable = run.settle(cfg.m_schedule, max_iter)
    return run.profile(), demand, rounds, stable


def round_robin_oracle(scen, cfg, max_iter: int, order: str, power_grid: int):
    """The round-robin dynamics with every best response built fresh from
    the whole profile by `fresh_best_response`; returns what `settled_run`
    does: profile, demand, rounds, stable."""
    n = scen.n_devices
    profile = default_init(scen, power_grid)
    demand = lower_level.best_response_demand(profile.prices, scen)
    device_order = range(n - 1, -1, -1) if order == "reverse" else range(n)
    rounds = 0
    stable = False
    for M in cfg.m_schedule:
        stable = False
        for _ in range(max_iter):
            rounds += 1
            changed = 0
            for i in device_order:
                j_new, p_new = fresh_best_response(i, profile, demand, scen, M, power_grid)
                if j_new != profile.targets[i] or abs(p_new - profile.powers[i]) > _P_TOL:
                    changed += 1
                profile.targets[i] = j_new
                profile.powers[i] = p_new
            if not changed:
                stable = True
                break
    return profile, demand, rounds, stable


def unilateral_gains_oracle(profile, scen, M: float, power_grid: int = 50) -> np.ndarray:
    """The equilibrium certificate scored in full: per device,
    `matrix_value` of the profile, of the closed-form price deviation and
    of a fresh relay/power best response, and the gain of the better
    deviation."""
    demand = lower_level.best_response_demand(profile.prices, scen)
    gains = np.zeros(scen.n_devices)
    for i in range(scen.n_devices):
        base, _ = matrix_value(i, profile.prices, profile.targets, profile.powers, demand, scen, M)
        prices_alt = profile.prices.copy()
        prices_alt[i] = price_best_response(i, scen)
        demand_alt = lower_level.best_response_demand(prices_alt, scen)
        val_q, _ = matrix_value(i, prices_alt, profile.targets, profile.powers, demand_alt, scen, M)
        j_alt, p_alt = fresh_best_response(i, profile, demand, scen, M, power_grid)
        targets_alt = profile.targets.copy()
        powers_alt = profile.powers.copy()
        targets_alt[i], powers_alt[i] = j_alt, p_alt
        val_jp, _ = matrix_value(i, profile.prices, targets_alt, powers_alt, demand, scen, M)
        gains[i] = max(val_q, val_jp) - base
    return gains


# Readers of a `_Run`'s per-device state. `candidates` needs device i caught
# up (`run._catch_up(i)`, as `run.best` does first); the others do not.


def caught_up_run(i, profile, demand, scen, power_grid: int = 50) -> _Run:
    """A fresh run on `profile` with device i's state started."""
    run = _Run(profile, demand, scen, power_grid)
    run._catch_up(i)
    return run


def interference_at(run, i: int, j: int) -> float:
    """Received power at node j from the devices other than i aiming at it."""
    if run.targets[i] == j:
        return run.co_target_power(j, without=i)
    return run.interference[j]


def interference(run, i: int) -> list[float]:
    """`interference_at` of every node."""
    return [interference_at(run, i, j) for j in range(run.ap + 1)]


def rho_base(run, i: int, j: int) -> float:
    """Rho of device i's link to node j before its lateness term."""
    ancestors, reached, cut, direct = run.structure(i)
    if j == run.ap:
        return direct
    return reached if run.reaches_ap[j] and j not in ancestors else cut


def candidates(run, i: int) -> list[tuple[int, float, float, float]]:
    """(j, p, profit, rho) of every candidate link of device i, in ranking order."""
    return [
        (j, link[0], link[1], rho_base(run, i, j) - link[2])
        for j, link in enumerate(run.links[i])
        if link is not None
    ]


def deadline_power(run, i: int, j: int) -> float:
    """`run.deadline_power` of device i at relay j, at its current inflow
    and against the current co-target interference."""
    return run.deadline_power(i, j, len(run.children[i]), interference_at(run, i, j))


def value(run, i: int, j: int, p: float, M: float) -> tuple[float, float]:
    """Penalized profit and penalty of device i on link (j, p), p > 0, from
    the run's link terms: `matrix_value` of the profile with that link
    substituted."""
    terms = run._terms(i, j, p, len(run.children[i]), interference_at(run, i, j))
    if terms is None:
        raise ValueError(f"device {i} transmits with non-positive rate to node {j}")
    profit, late_sq = terms
    rho = rho_base(run, i, j) - late_sq
    return profit + M * rho, rho


def least_deadline_powers(targets, demand, scen, start, power_grid: int = 50) -> list[float]:
    """Powers of the next-hop plan `targets`: the power floor on a direct
    link, and on relay links the least fixed point of the map that gives
    every relayed device its `deadline_power` (capped at p_max) against
    the others' powers, iterated up from powers too small to interfere,
    on one run of the plan that moves every relayed device at each step."""
    ap = scen.ap
    powers = [d.p_max / power_grid if t == ap else 5e-324 for d, t in zip(scen.devices, targets)]
    run = _Run(StrategyProfile(start.prices, targets, powers), demand, scen, power_grid)
    relayed = [i for i, t in enumerate(targets) if t != ap]
    for _ in range(1000):
        new = [deadline_power(run, i, targets[i]) for i in relayed]
        if new == [run.powers[i] for i in relayed]:
            return list(run.powers)
        for i, p in zip(relayed, new):
            run.move(i, targets[i], p)
    raise AssertionError(f"deadline powers of plan {targets} did not settle")


def pure_equilibria(scen, M: float = 1e8, power_grid: int = 50, rtol: float = 1e-9):
    """Every pure equilibrium of the relay/power game at the `default_init`
    prices and demand, by enumeration: each next-hop plan without
    self-loops, at its `least_deadline_powers`, is kept when every
    device's `fresh_best_response` at coefficient M is its own target and,
    to `rtol` relative, its own power. Returns the kept profiles."""
    start = default_init(scen, power_grid)
    demand = lower_level.best_response_demand(start.prices, scen)
    n, ap = scen.n_devices, scen.ap
    found = []
    for plan in itertools.product(*[[j for j in range(ap + 1) if j != i] for i in range(n)]):
        targets = list(plan)
        powers = least_deadline_powers(targets, demand, scen, start, power_grid)
        profile = StrategyProfile(start.prices.copy(), targets, powers)
        for i in range(n):
            j, p = fresh_best_response(i, profile, demand, scen, M, power_grid)
            if j != targets[i] or abs(p - powers[i]) > rtol * powers[i]:
                break
        else:
            found.append(profile)
    return found


def same_links(a, b) -> bool:
    """Equal targets, and powers within 1e-9 of each other."""
    return np.array_equal(a.targets, b.targets) and np.allclose(a.powers, b.powers, rtol=0, atol=1e-9)
