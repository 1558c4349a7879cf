"""Device-side subgame: profits under the substituted demand response,
exterior-point penalty, per-device best responses, and the round-robin
dynamics that assemble the bilevel equilibrium.

Each device's strategy is a triple (price, relay target, transmit
power). Prices enter profit separably and have a closed-form optimum in
the device's own parameters, so prices and the owner's demand are fixed
before any link choice. Relay and power choices interact through
interference, relay fees, and arrival deadlines, and are handled by
discrete enumeration over targets with the deadline-matching minimal
power per target. Constraint
violations are priced into the objective via an increasing schedule of
penalty coefficients, so infeasible strategies are dominated once the
coefficient is large.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import lower_level, radio, routing
from .scenario import Scenario, price_floor

logger = logging.getLogger(__name__)

DEFAULT_M_SCHEDULE = tuple(10.0**k for k in range(1, 9))

# power-change tolerance for the convergence test
_P_TOL = 1e-10
# relative bump on deadline-matching rates so met deadlines hold strictly
_TIMING_SAFETY = 1e-9


@dataclass(frozen=True)
class PenaltyConfig:
    """Exterior-penalty settings.

    m_schedule: strictly increasing, finite, positive penalty coefficients.
    eps_feas: slack allowed when declaring a constraint satisfied.
    """

    m_schedule: tuple[float, ...] = DEFAULT_M_SCHEDULE
    eps_feas: float = 1e-9

    def __post_init__(self):
        ms = tuple(float(m) for m in self.m_schedule)
        object.__setattr__(self, "m_schedule", ms)
        if not ms or not all(0 < m < math.inf for m in ms):
            raise ValueError("m_schedule must be nonempty, finite and positive")
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ValueError("m_schedule must be strictly increasing")


@dataclass
class StrategyProfile:
    """Joint device strategy: prices plus one (target, power) link each."""

    prices: np.ndarray
    targets: np.ndarray
    powers: np.ndarray

    def __post_init__(self):
        self.prices = np.asarray(self.prices, dtype=float)
        self.powers = np.asarray(self.powers, dtype=float)
        targets = np.asarray(self.targets)
        integral = targets.dtype.kind in "iu" or (
            targets.dtype.kind == "f"
            and np.all(np.isfinite(targets))
            and np.all(targets == np.trunc(targets))
        )
        if not integral:
            raise ValueError("targets must be integers")
        self.targets = targets.astype(int)
        n = len(self.prices)
        if len(self.targets) != n or len(self.powers) != n:
            raise ValueError("prices, targets, powers must have equal length")
        for name in ("prices", "powers"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if np.any(self.targets == np.arange(n)):
            raise ValueError("a device cannot relay through itself")

    def copy(self) -> "StrategyProfile":
        return StrategyProfile(self.prices.copy(), self.targets.copy(), self.powers.copy())

    def power_matrix(self, n_nodes: int) -> np.ndarray:
        return routing.power_matrix(self.targets, self.powers, n_nodes)

    def indicator(self, n_nodes: int) -> np.ndarray:
        return routing.indicator_from_powers(self.power_matrix(n_nodes))


@dataclass
class EquilibriumReport:
    """Converged profile with the follower response and diagnostics."""

    prices: np.ndarray
    targets: np.ndarray
    powers: np.ndarray
    demand: np.ndarray
    rates: np.ndarray
    profits: np.ndarray
    owner_utility: float
    converged: bool
    iterations: int
    max_unilateral_gain: float
    feasible: bool
    violations: list
    order_robust: bool | None = None

    def profile(self) -> StrategyProfile:
        return StrategyProfile(self.prices.copy(), self.targets.copy(), self.powers.copy())

    def to_dict(self) -> dict:
        n = len(self.prices)
        return {
            "prices": self.prices.tolist(),
            "targets": self.targets.tolist(),
            "powers": self.powers.tolist(),
            "demand": self.demand.tolist(),
            "rates": self.rates.tolist(),
            "profits": self.profits.tolist(),
            "owner_utility": self.owner_utility,
            "routing": routing.routing_adjacency(self.targets, n),
            "converged": self.converged,
            "iterations": self.iterations,
            "max_unilateral_gain": self.max_unilateral_gain,
            "feasible": self.feasible,
            "violations": self.violations,
            "order_robust": self.order_robust,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EquilibriumReport":
        return cls(
            prices=np.asarray(data["prices"], dtype=float),
            targets=np.asarray(data["targets"], dtype=int),
            powers=np.asarray(data["powers"], dtype=float),
            demand=np.asarray(data["demand"], dtype=float),
            rates=np.asarray(data["rates"], dtype=float),
            profits=np.asarray(data["profits"], dtype=float),
            owner_utility=float(data["owner_utility"]),
            converged=bool(data["converged"]),
            iterations=int(data["iterations"]),
            max_unilateral_gain=float(data["max_unilateral_gain"]),
            feasible=bool(data["feasible"]),
            violations=list(data["violations"]),
            order_robust=data.get("order_robust"),
        )


def device_profit(
    i: int,
    profile: StrategyProfile,
    demand: np.ndarray,
    scen: Scenario,
    rates: np.ndarray | None = None,
) -> float:
    """Profit of device i: data revenue, minus transmission energy and
    processing costs, plus relay-service revenue, minus the relay fee
    when not transmitting directly."""
    if rates is None:
        rates = radio.transmission_rates(profile.targets, profile.powers, scen)
    I = profile.indicator(scen.n_nodes)
    return _profit_terms(i, profile.prices, profile.powers, demand, rates, I, scen)


def _profit_terms(i, prices, powers, demand, rates, I, scen) -> float:
    n, ap = scen.n_devices, scen.ap
    d = scen.devices[i]
    revenue = prices[i] * demand[i]
    energy = radio.transmission_energy_cost(i, powers, rates, scen)
    processing = d.c_p * demand[i]
    relay_revenue = scen.c_a * float(I[:n, i].sum())
    relay_fee = scen.c_a * (1.0 - float(I[i, ap]))
    return float(revenue - energy - processing + relay_revenue - relay_fee)


def reduced_profit(i: int, profile: StrategyProfile, scen: Scenario) -> float:
    """Profit with the owner's demand response substituted in."""
    demand = lower_level.best_response_demand(profile.prices, scen)
    return device_profit(i, profile, demand, scen)


def penalty_rho(
    i: int,
    I: np.ndarray,
    demand: np.ndarray,
    rates: np.ndarray,
    scen: Scenario,
) -> float:
    """Constraint penalty for device i; 0 exactly when all constraints hold.

    Terms: own out-degree, own self-loop, global chain-termination
    defect, global access-point connection, own arrival deadline. The
    last two penalize violations only, squared. Every term comes from
    the `routing` function that `routing.feasible` reports with.
    """
    I = np.asarray(I)
    degrees, loops, shortfall = routing.link_faults(I)
    rho = -float(degrees[i] - 1) ** 2
    rho -= float(loops[i]) ** 2
    rho -= routing.reach_defect(I)
    rho -= max(0, shortfall) ** 2
    rho -= max(0.0, routing.timing_violation(i, I, demand, rates, scen)) ** 2
    return rho


def penalized_profit(i: int, profile: StrategyProfile, M: float, scen: Scenario) -> float:
    """Reduced profit plus M times the constraint penalty."""
    if M <= 0:
        raise ValueError(f"penalty coefficient must be > 0, got {M}")
    demand = lower_level.best_response_demand(profile.prices, scen)
    value, _ = _value(i, profile.prices, profile.targets, profile.powers, demand, scen, M)
    return value


def _value(i, prices, targets, powers, demand, scen, M) -> tuple[float, float]:
    """Penalized profit of device i at an explicit demand iterate.

    Matrix form: rebuilds the power and indicator matrices, every rate
    and the boolean reachability power. The certificate in
    `unilateral_gains` scores with it, independently of the O(1)
    candidate evaluation in `relay_power_best_response`.
    """
    P = routing.power_matrix(targets, powers, scen.n_nodes)
    I = routing.indicator_from_powers(P)
    rates = radio.rates_from_matrix(P, scen)
    profit = _profit_terms(i, prices, powers, demand, rates, I, scen)
    rho = penalty_rho(i, I, demand, rates, scen)
    return profit + M * rho, rho


def price_best_response(i: int, scen: Scenario) -> float:
    """Profit-maximizing price for device i, clamped to its price domain.

    The price-dependent profit (q - c_p) * ln(c*b/q) / c is strictly
    concave with a unique stationary point in (c_p, c*b); bisection on
    the derivative pins it down. A device whose processing cost exceeds
    c*b has no profitable price; it gets the demand-zeroing price.
    """
    d = scen.devices[i]
    cb = d.accuracy.c * d.accuracy.b
    q_lo, q_hi = price_floor(scen), d.q_max
    if d.c_p >= cb:
        logger.warning(
            "device %d is degenerate (c_p=%g >= c*b=%g); pricing demand to zero", i, d.c_p, cb
        )
        return min(max(cb, q_lo), q_hi)
    lo, hi = d.c_p, cb
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.log(cb / mid) - 1.0 + d.c_p / mid > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    return min(max(0.5 * (lo + hi), q_lo), q_hi)


# Where a device's forwarding chain ends once device i's own link is cut.
_ENDS_AT_AP, _ENDS_AT_I, _ENDS_IN_CYCLE = 0, 1, 2


def _chain_ends(targets: list[int], i: int, ap: int) -> list[int]:
    """Label each device by where its forwarding chain ends when device i
    is a terminal: the access point, device i, or a cycle avoiding i.
    Device i itself is labelled _ENDS_AT_I."""
    n = len(targets)
    walking = -1  # label of the nodes on the walk in progress
    ends: list[int | None] = [None] * n
    ends[i] = _ENDS_AT_I
    for k in range(n):
        path = []
        node = k
        while node != ap and ends[node] is None:
            ends[node] = walking
            path.append(node)
            node = targets[node]
        end = _ENDS_AT_AP if node == ap else ends[node]
        if end == walking:
            end = _ENDS_IN_CYCLE
        for m in path:
            ends[m] = end
    return ends


class _RelayContext:
    """Everything device i's penalized profit needs from the others, who
    are held fixed; built once per best response, after which a candidate
    link (target, power) costs O(1) scalar arithmetic.

    Every other device must transmit with positive power, so every row
    of the indicator is single-link. The chain-termination defect is
    then twice the number of devices whose chain never reaches the
    access point, and device i's link decides only whether i and the
    devices whose chains end at i join them.
    """

    def __init__(self, i: int, profile: StrategyProfile, demand: np.ndarray, scen: Scenario):
        n, ap = scen.n_devices, scen.ap
        targets = profile.targets.tolist()
        powers = profile.powers.tolist()
        if not all(powers[k] > 0 for k in range(n) if k != i):
            raise ValueError(
                f"best response of device {i} needs every other device to transmit "
                "with positive power"
            )
        self.H = H = scen.H
        self.i, self.scen = i, scen
        self.device = d = scen.devices[i]
        self.T_s = routing.processing_times(demand, scen)
        # co-target received power per node, summed in ascending device order
        self.interference = [0.0] * scen.n_nodes
        for k in range(n):
            if k != i:
                self.interference[targets[k]] += H[k, targets[k]] * powers[k]
        self.inflow = sum(1 for k in range(n) if k != i and targets[k] == i)
        self.ap_links = sum(1 for k in range(n) if k != i and targets[k] == ap)
        self.ends = _chain_ends(targets, i, ap)
        self.stranded = self.ends.count(_ENDS_IN_CYCLE)
        self.through_i = self.ends.count(_ENDS_AT_I) - 1
        self.revenue = profile.prices[i] * demand[i]
        self.processing = d.c_p * demand[i]

    def deadline_power(self, j: int) -> float:
        """Minimal power meeting the arrival deadline at relay j against
        the current co-target interference; p_max when unmeetable."""
        i, d, scen = self.i, self.device, self.scen
        slack = self.T_s[j] - self.T_s[i] - d.T_a * self.inflow
        if slack > 0:
            try:
                rate = scen.I_d / slack * (1.0 + _TIMING_SAFETY)
                return radio.min_power_for_rate(i, j, rate, self.interference[j], scen)
            except radio.PowerLimitError:
                pass
        return d.p_max

    def value(self, j: int, p: float, M: float) -> tuple[float, float]:
        """Penalized profit and penalty of device i on link (j, p), p > 0:
        `_value` of the profile with that link substituted."""
        i, d, scen = self.i, self.device, self.scen
        direct = j == scen.ap
        rate = d.w * math.log2(1.0 + self.H[i, j] * p / (self.interference[j] + scen.sigma2))
        if not rate > 0:
            raise ValueError(f"device {i} transmits with non-positive rate {rate}")
        energy = d.c_t * (scen.I_d / rate) * p
        relay_fee = scen.c_a * (0.0 if direct else 1.0)
        profit = float(
            self.revenue - energy - self.processing + scen.c_a * self.inflow - relay_fee
        )
        stranded = self.stranded
        late = 0.0
        if not direct:
            if self.ends[j] != _ENDS_AT_AP:
                stranded += 1 + self.through_i
            late = float(self.T_s[i] + d.T_a * self.inflow + scen.I_d / rate - self.T_s[j])
        rho = -2.0 * stranded
        rho -= max(0.0, 1.0 - (self.ap_links + direct)) ** 2
        rho -= max(0.0, late) ** 2
        return profit + M * rho, rho


def relay_power_best_response(
    i: int,
    profile: StrategyProfile,
    demand: np.ndarray,
    scen: Scenario,
    M: float,
    power_grid: int = 50,
) -> tuple[int, float]:
    """Best (target, power) for device i with everyone else held fixed.

    Device targets get the minimal power meeting the arrival deadline
    against the current co-target interference (power bound when the
    deadline is unmeetable). The direct link gets the power floor
    p_max / power_grid: there the energy cost c_t * I_d * p / rate(p)
    strictly increases in p and nothing else in the objective depends
    on p, so any higher power is dominated. Ranking is by penalized
    profit; ties keep the lowest device target, with the direct link
    ordered last. Every other device must transmit with positive power.
    """
    ctx = _RelayContext(i, profile, demand, scen)
    candidates = [(j, ctx.deadline_power(j)) for j in range(scen.n_devices) if j != i]
    candidates.append((scen.ap, scen.devices[i].p_max / power_grid))

    best: tuple[int, float] | None = None
    best_val = -math.inf
    any_feasible = False
    for j, p in candidates:
        if p <= 0:
            continue
        val, rho = ctx.value(j, p, M)
        any_feasible = any_feasible or rho == 0.0
        if val > best_val:
            best, best_val = (j, p), val
    assert best is not None
    if not any_feasible:
        logger.warning(
            "device %d has no feasible action even at p_max; "
            "keeping the least-penalized one (target %d)", i, best[0]
        )
    return best


def default_init(scen: Scenario, power_grid: int = 50) -> StrategyProfile:
    """Everyone direct to the access point at the lowest grid power,
    prices at their closed-form optimum."""
    n = scen.n_devices
    prices = np.array([price_best_response(i, scen) for i in range(n)])
    targets = np.full(n, scen.ap, dtype=int)
    powers = scen.param("p_max") / power_grid
    return StrategyProfile(prices, targets, powers)


def unilateral_gains(
    profile: StrategyProfile,
    scen: Scenario,
    M: float,
    power_grid: int = 50,
) -> np.ndarray:
    """Best-response improvement available to each device at a profile.

    Re-runs the price and the relay/power best responses once per device
    and measures the penalized-profit gain of the better of the two.
    """
    n = scen.n_devices
    demand = lower_level.best_response_demand(profile.prices, scen)
    gains = np.zeros(n)
    for i in range(n):
        base, _ = _value(i, profile.prices, profile.targets, profile.powers, demand, scen, M)
        q_alt = price_best_response(i, scen)
        prices_alt = profile.prices.copy()
        prices_alt[i] = q_alt
        demand_alt = lower_level.best_response_demand(prices_alt, scen)
        val_q, _ = _value(i, prices_alt, profile.targets, profile.powers, demand_alt, scen, M)
        j_alt, p_alt = relay_power_best_response(i, profile, demand, scen, M, power_grid)
        targets_alt = profile.targets.copy()
        powers_alt = profile.powers.copy()
        targets_alt[i], powers_alt[i] = j_alt, p_alt
        val_jp, _ = _value(i, profile.prices, targets_alt, powers_alt, demand, scen, M)
        gains[i] = max(val_q, val_jp) - base
    return gains


def _round_robin(
    scen: Scenario, cfg: PenaltyConfig, max_iter: int, order: str, power_grid: int
) -> tuple[StrategyProfile, np.ndarray, int, bool]:
    """Round-robin relay/power best responses from `default_init` over the
    penalty schedule, re-converging at each coefficient.

    Prices stay at their closed-form optimum and the owner's demand at
    its response to them. Returns the profile, the demand, the number of
    rounds and whether the last stage settled.
    """
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
            changed = False
            for i in device_order:
                j_new, p_new = relay_power_best_response(i, profile, demand, scen, M, power_grid)
                if j_new != profile.targets[i] or abs(p_new - profile.powers[i]) > _P_TOL:
                    changed = True
                profile.targets[i] = j_new
                profile.powers[i] = p_new
            if not changed:
                stable = True
                break
        if not stable:
            logger.warning("dynamics did not settle within %d rounds at M=%g", max_iter, M)
    return profile, demand, rounds, stable


def best_response_dynamics(
    scen: Scenario,
    cfg: PenaltyConfig | None = None,
    eps_nash: float = 1e-6,
    max_iter: int = 100,
    power_grid: int = 50,
) -> EquilibriumReport:
    """Round-robin best-response iteration over an increasing penalty
    schedule, and the report at the profile it ends on.

    Every device starts direct to the access point with its price at the
    closed-form optimum, which no later round changes; each round updates
    every device's (target, power) link against the fixed demand. The
    schedule re-converges the dynamics at each penalty coefficient.
    Non-convergence is reported, never raised.
    """
    cfg = cfg or PenaltyConfig()
    profile, demand, rounds, stable = _round_robin(scen, cfg, max_iter, "forward", power_grid)
    n = scen.n_devices
    M_final = cfg.m_schedule[-1]
    gain = float(np.max(np.maximum(
        unilateral_gains(profile, scen, M_final, power_grid), 0.0
    ), initial=0.0))
    rates = radio.transmission_rates(profile.targets, profile.powers, scen)
    profits = np.array([
        device_profit(i, profile, demand, scen, rates=rates) for i in range(n)
    ])
    I = profile.indicator(scen.n_nodes)
    feas, violations = routing.feasible(I, demand, rates, scen, cfg.eps_feas)
    converged = stable and gain <= eps_nash and feas
    return EquilibriumReport(
        prices=profile.prices,
        targets=profile.targets,
        powers=profile.powers,
        demand=demand,
        rates=rates,
        profits=profits,
        owner_utility=lower_level.owner_utility(demand, profile.prices, scen),
        converged=converged,
        iterations=rounds,
        max_unilateral_gain=gain,
        feasible=feas,
        violations=violations,
    )


def solve_stackelberg(
    scen: Scenario,
    cfg: PenaltyConfig | None = None,
    eps_nash: float = 1e-6,
    max_iter: int = 100,
    power_grid: int = 50,
    order_check: bool = True,
) -> EquilibriumReport:
    """Full bilevel solve: leader dynamics, then the follower response
    and owner utility at the resulting profile.

    With order_check the round-robin loop also runs in reverse device
    order, and the report records whether both orders reach the same
    targets and powers (prices are fixed before either run); the report
    itself describes the forward profile only.
    """
    cfg = cfg or PenaltyConfig()
    report = best_response_dynamics(
        scen, cfg, eps_nash=eps_nash, max_iter=max_iter, power_grid=power_grid
    )
    if order_check:
        alt, _, _, _ = _round_robin(scen, cfg, max_iter, "reverse", power_grid)
        report.order_robust = bool(
            np.array_equal(alt.targets, report.targets)
            and np.allclose(alt.powers, report.powers, rtol=0, atol=1e-9)
        )
    return report
