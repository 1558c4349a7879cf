"""Device-side subgame: profits under the substituted demand response,
exterior-point penalty, per-device best responses, and the round-robin
dynamics that assemble the bilevel equilibrium.

Each device's strategy is a triple (price, relay target, transmit
power). By design, prices and the owner's demand are fixed before the
link dynamics: each device posts the closed-form optimum of its
price-dependent profit, which is its best price on the direct link. On a
relay link the arrival deadline couples price and power, so this is a
modelling choice, not a consequence of separable profit. Relay and power
choices interact through interference, relay fees, and arrival
deadlines, and are handled by discrete enumeration over targets with the
deadline-matching minimal power per target. Constraint violations are
priced into the objective via an increasing schedule of penalty
coefficients, so infeasible strategies are dominated once the
coefficient is large.

`solve_stackelberg` is the one solver. It prices every device once
(`default_init`), computes the owner's demand once, and runs the
dynamics on one `_Run`, devices in index order. A run holds the targets
and powers as lists, the co-target power at each node, the profile's
structure (each node's children, and whether each device's chain
reaches the access point), updated once per move, and per device its
scored candidates, kept for the whole run. A candidate's profit and
penalty do not depend on the penalty coefficient, so a new coefficient
only re-ranks them; another device's move re-scores only the links
whose target it touched, or all of them when it changes the device's
inflow. A link's terms are a pure function of its target, the device's
inflow and the interference there, so the run caches them and a stage
that cycles scores a revisited link once. The certificate and the
report's profits are scored with the run's link terms too.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from . import lower_level, radio, routing
from .scenario import Scenario, ScenarioError, price_floor

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
    eps_feas: slack allowed when declaring a constraint satisfied (a constant).
    eps_nash: largest unilateral gain of a converged solve (a constant).
    """

    m_schedule: tuple[float, ...] = DEFAULT_M_SCHEDULE
    eps_feas: ClassVar[float] = 1e-9
    eps_nash: ClassVar[float] = 1e-6

    def __post_init__(self):
        ms = tuple(float(m) for m in self.m_schedule)
        object.__setattr__(self, "m_schedule", ms)
        if not ms or not all(0 < m < math.inf for m in ms):
            raise ValueError("m_schedule must be nonempty, finite and positive")
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ValueError("m_schedule must be strictly increasing")


@dataclass
class StrategyProfile:
    """Joint device strategy: prices plus one (target, power) link each,
    every power positive."""

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
        if not np.all(self.powers > 0):
            raise ValueError("powers must be positive")
        if np.any(self.targets == np.arange(n)):
            raise ValueError("a device cannot relay through itself")

    def check_fits(self, scen: Scenario) -> None:
        """Raise ValueError unless the profile has one strategy per device of
        `scen`, each target a node, price in [price floor, q_max], power <= p_max."""
        n = scen.n_devices
        if len(self.prices) != n:
            raise ValueError(f"{len(self.prices)} devices, the scenario has {n}")
        if np.any((self.targets < 0) | (self.targets > n)):
            raise ValueError(f"targets must lie in 0..{n}")
        q_lo = price_floor(scen)
        for k, (q, p, d) in enumerate(zip(self.prices, self.powers, scen.devices)):
            if not q_lo <= q <= d.q_max:
                raise ValueError(f"device {k} price {q:g} lies outside [{q_lo:g}, {d.q_max:g}]")
            if p > d.p_max:
                raise ValueError(f"device {k} power {p:g} exceeds p_max {d.p_max:g}")


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

    def to_dict(self) -> dict:
        """Every field, arrays as lists, plus the next-hop map `routing`."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in data.items()}
        data["routing"] = routing.routing_adjacency(self.targets, len(self.prices))
        return data


def penalty_rho(i: int, I: np.ndarray, demand: np.ndarray, rates: np.ndarray, scen: Scenario) -> float:
    """Constraint penalty for device i; 0 exactly when all constraints hold.

    Terms: own out-degree, own self-loop, global chain-termination
    defect, global access-point connection, own arrival deadline. The
    last two penalize violations only, squared. Every term comes from
    the `routing` function that `routing.feasible` reports with; any
    relayed device without a positive rate raises ZeroDivisionError.
    """
    I = np.asarray(I)
    degrees, loops, shortfall = routing.link_faults(I)
    rho = -float(degrees[i] - 1) ** 2
    rho -= float(loops[i]) ** 2
    rho -= routing.reach_defect(I)
    rho -= max(0, shortfall) ** 2
    rho -= max(0.0, float(routing.timing_violations(I, demand, rates, scen)[i])) ** 2
    return rho


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


# a link-term cache entry that was never scored, as opposed to a link scored as None
_UNSCORED = object()


class _Run:
    """One run of the round-robin dynamics from a start profile, which it
    does not modify, and each device's relay/power best response against
    the others, who are held fixed, kept up to date as they move.

    The run keeps the start prices, its own targets and powers, the
    processing times T_s and the rows of H as Python lists, and per node
    the co-target power: the received power of every device aiming at
    it, summed from zero in ascending device order. A move re-sums it at
    its old and new target, once for all devices, and adds both targets
    to every other device's `touched` set. A move that changes a target
    also labels the profile once: each node's children (the devices
    aiming at it, ascending) and whether each device's chain reaches the
    access point or ends in a cycle. `profile()` builds the current
    profile on request.

    Device i's state is kept in per-device lists; `inflow[i]`, read by
    the catch-up only, is its inflow (the number of devices relaying
    through it) at its last catch-up, unknown at first, so its first
    `best` scores every link. Per candidate target
    j (every other node), `links[i][j]` holds the link terms that cost a
    `min_power_for_rate` and a `log2`: the power, the profit and the
    squared lateness, or None for a link that is not a candidate. Given
    the scenario, the prices, the demand and the power grid, the terms of
    link j depend only on device i's inflow and the co-target
    interference at j, so they are looked up in `cache[i]` under
    (j, inflow, interference) and computed only on a miss. The cache
    belongs to the run. Dynamics that settle revisit few keys (19-27% of
    the lookups hit on paper9 seed 7, random n = 16 seed 0 and random
    n = 80 seed 1); dynamics that cycle revisit the same profiles stage
    after stage (90% hits on random n = 20 seed 1, 97% on relay-spec
    n = 40 seed 0), and without the cache those two solves take 2.1 and
    1.7 times the CPU.

    `best(i, M)` first catches device i up: it looks a link up again only
    when its target is in `touched[i]`, or every link when device i's
    inflow changed. The interference at j is the run's co-target sum
    there, except at device i's own current target, where it is re-summed
    in ascending device order without device i; so every number equals
    what a fresh run computes, bit for bit.

    A profile's powers are positive, and every move sets a positive
    power, so every row of the indicator stays single-link. The
    chain-termination defect is then twice the number of devices whose
    chain never reaches the access point, and device i's link decides
    only whether i and its ancestors (the devices whose chains pass
    through i) join them. At each `best`, `structure(i)` derives from
    the labels device i's ancestors and the rho, before its lateness term, of a link to a
    device whose chain then reaches the access point, to one whose chain
    does not, and of the direct link; nothing of it is cached. Neither
    profit nor rho depends on the penalty coefficient M, so `best` only
    re-ranks the cached links by profit + M * rho, and `answers[i]` keeps
    device i's last ranking, with the winner's value, for `best` to return
    when it still stands and for `_gains` to score against `current(i)`.
    `current(i)` needs no catch-up: it reads the inflow from the labels.
    """

    def __init__(
        self,
        start: StrategyProfile,
        demand: np.ndarray,
        scen: Scenario,
        power_grid: int,
    ):
        n = scen.n_devices
        self.prices, self.demand, self.scen = start.prices, demand, scen
        self.ap, self.devices = n, scen.devices
        self.sigma2, self.I_d, self.c_a = scen.sigma2, scen.I_d, scen.c_a
        self.targets: list[int] = start.targets.tolist()
        self.powers: list[float] = start.powers.tolist()
        self.T_s: list[float] = routing.processing_times(demand, scen).tolist()
        self.H: list[list[float]] = scen.H.tolist()
        self.revenue = [float(start.prices[i] * demand[i]) for i in range(n)]
        self.processing = [float(d.c_p * demand[i]) for i, d in enumerate(self.devices)]
        self.floor = [d.p_max / power_grid for d in self.devices]
        self.cache: list[dict] = [{} for _ in range(n)]
        self._label()
        self.interference = [self.co_target_power(j) for j in range(n + 1)]
        self.links: list[list[tuple[float, float, float] | None]] = [[None] * (n + 1) for _ in range(n)]
        self.inflow = [-1] * n
        self.touched: list[set[int]] = [set() for _ in range(n)]
        # per device: (M, found a feasible action, rho, target, power, value) of its last ranking
        self.answers: list[tuple[float, bool, float, int, float, float] | None] = [None] * n

    def _label(self) -> None:
        """Children of every node, and whether each device's chain reaches
        the access point; counts the devices whose chain does not."""
        targets, ap = self.targets, self.ap
        self.children: list[list[int]] = [[] for _ in range(ap + 1)]
        for k, t in enumerate(targets):
            self.children[t].append(k)
        reaches: list[bool | None] = [None] * ap
        for k in range(ap):
            path = []
            node = k
            while node != ap and reaches[node] is None:
                reaches[node] = False  # on the walk in progress: a revisit is a cycle
                path.append(node)
                node = targets[node]
            end = node == ap or reaches[node]
            for m in path:
                reaches[m] = end
        self.reaches_ap = reaches
        self.stranded = reaches.count(False)

    def co_target_power(self, j: int, without: int = -1) -> float:
        """Received power at node j from the devices aiming at it, device
        `without` left out, summed from zero in ascending device order."""
        H, powers = self.H, self.powers
        total = 0.0
        for k in self.children[j]:
            if k != without:
                total += H[k][j] * powers[k]
        return total

    def _catch_up(self, i: int) -> None:
        """Bring device i's links up to date with the others' moves since its last turn."""
        inflow = len(self.children[i])
        touched = self.touched[i]
        if inflow != self.inflow[i]:
            self.inflow[i] = inflow
            # scoring every link starts at the direct one, so a zero-rate power
            # floor stops the solve before any relay link is tried
            touched = range(self.ap, -1, -1)
        links, cache, own, shared = self.links[i], self.cache[i], self.targets[i], self.interference
        for j in touched:
            if j == i:
                continue
            interference = self.co_target_power(j, without=i) if j == own else shared[j]
            key = (j, inflow, interference)
            terms = cache.get(key, _UNSCORED)
            if terms is _UNSCORED:
                terms = cache[key] = self._link_terms(i, j, inflow, interference)
            links[j] = terms
        self.touched[i].clear()

    def structure(self, i: int) -> tuple[set[int], float, float, float]:
        """Device i's ancestors, and the rho before the lateness term of a
        link to a device whose chain then reaches the access point, to one
        whose chain does not, and of the direct link, from the labels."""
        ancestors: set[int] = set()
        stack = list(self.children[i])
        while stack:
            k = stack.pop()
            if k != i and k not in ancestors:
                ancestors.add(k)
                stack.extend(self.children[k])
        stranded = self.stranded - (0 if self.reaches_ap[i] else 1 + len(ancestors))
        ap_links = len(self.children[self.ap]) - (self.targets[i] == self.ap)
        relay_ap = max(0.0, 1.0 - ap_links) ** 2
        reached = -2.0 * stranded - relay_ap  # cut: i and its ancestors strand as well
        return ancestors, reached, reached - 2.0 * (1 + len(ancestors)), -2.0 * stranded

    def deadline_power(self, i: int, j: int, inflow: int, interference: float) -> float:
        """Least power at which device i, relaying `inflow` updates, meets
        its arrival deadline at device j against `interference`; p_max
        when no power does."""
        d = self.devices[i]
        slack = self.T_s[j] - self.T_s[i] - d.T_a * inflow
        if slack > 0:
            try:
                rate = self.I_d / slack * (1.0 + _TIMING_SAFETY)
                return radio.min_power_for_rate(i, j, rate, interference, self.scen)
            except radio.PowerLimitError:
                pass
        return d.p_max

    def _link_terms(self, i: int, j: int, inflow: int, interference: float) -> tuple[float, float, float] | None:
        """(power, profit, squared lateness) of device i's candidate link
        to j at `inflow`; None for a relay link whose gain or rate is 0, as
        at a power that rounds to 0. The relay power is `deadline_power`."""
        if j == self.ap:
            p = self.floor[i]
            terms = self._terms(i, j, p, inflow, interference)
            if terms is not None and math.isfinite(terms[0]):
                return (p, *terms)
            floor = f"on its direct link at the power floor p_max/power_grid = {p:.6g}"
            if terms is None:
                raise ScenarioError(
                    f"device {i} has rate 0 {floor} (channel gain {self.H[i][j]:.6g}, "
                    f"noise {self.sigma2:g}); a smaller --power-grid raises the floor"
                )
            raise ScenarioError(
                f"device {i} has a non-finite profit {floor}: its energy cost "
                f"c_t * I_d * p / rate overflows (c_t = {self.devices[i].c_t:g}, I_d = {self.I_d:g})"
            )
        if not self.H[i][j] > 0:  # rate 0 at any power
            return None
        p = self.deadline_power(i, j, inflow, interference)
        terms = self._terms(i, j, p, inflow, interference)
        return None if terms is None else (p, *terms)

    def _terms(self, i: int, j: int, p: float, inflow: int, interference: float) -> tuple[float, float] | None:
        """Profit and squared deadline lateness of device i on link (j, p)
        at `inflow`; None when the rate is not positive."""
        d = self.devices[i]
        rate = d.w * math.log2(1.0 + self.H[i][j] * p / (interference + self.sigma2))
        if not rate > 0:
            return None
        I_d, c_a = self.I_d, self.c_a
        energy = d.c_t * (I_d / rate) * p
        direct = j == self.ap
        relay_fee = c_a * (0.0 if direct else 1.0)
        profit = self.revenue[i] - energy - self.processing[i] + c_a * inflow - relay_fee
        late = 0.0
        if not direct:
            T_s = self.T_s
            late = T_s[i] + d.T_a * inflow + I_d / rate - T_s[j]
        return profit, max(0.0, late) ** 2

    def best(self, i: int, M: float) -> tuple[int, float]:
        """Best (target, power) for device i at penalty coefficient M with
        everyone else held fixed, once caught up.

        Device targets get the minimal power meeting the arrival deadline
        against the current co-target interference (p_max when the
        deadline is unmeetable); a relay link whose power or rate rounds
        to 0 is not a candidate. The direct link gets the power floor
        p_max / power_grid: there the energy cost c_t * I_d * p / rate(p)
        strictly increases in p and nothing else in the objective depends
        on p, so any higher power is dominated. A floor whose rate rounds
        to 0, or whose profit overflows, raises ScenarioError. Ranking is
        by penalized profit; ties keep the lower node, so the direct link
        ranks last.

        A call that nothing touched since device i's last one returns that
        call's answer unranked when M is that call's coefficient and that
        call found a feasible action, or when M is larger and the answer's
        rho was exactly 0. For rho <= 0, M * rho only falls as M grows, so
        no link overtakes or ties an answer whose value stays at its
        profit. An empty `touched[i]` also means an unchanged inflow: only
        another device's move changes device i's children, and every such
        move adds i to `touched[i]`.
        """
        last = self.answers[i]
        if last is not None and not self.touched[i]:
            M_last, feasible, rho, j, p, _ = last
            if (M == M_last and feasible) or (M > M_last and rho == 0.0):
                return j, p
        self._catch_up(i)
        reaches, ap = self.reaches_ap, self.ap
        ancestors, reached, cut, direct = self.structure(i)
        best_j, best_p, best_rho = -1, 0.0, 0.0
        best_val = -math.inf
        any_feasible = False
        for j, link in enumerate(self.links[i]):
            if link is None:
                continue
            p, profit, late_sq = link
            if j == ap:
                rho = direct - late_sq
            elif reaches[j] and j not in ancestors:
                rho = reached - late_sq
            else:
                rho = cut - late_sq
            val = profit + M * rho
            if rho == 0.0:
                any_feasible = True
            if val > best_val:
                best_j, best_p, best_rho, best_val = j, p, rho, val
        assert best_j >= 0
        if not any_feasible:
            logger.warning(
                "device %d has no feasible action even at p_max; "
                "keeping the least-penalized one (target %d)", i, best_j
            )
        self.answers[i] = (M, any_feasible, best_rho, best_j, best_p, best_val)
        return best_j, best_p

    def current(self, i: int) -> tuple[float, float]:
        """Profit and rho of device i's current link, scored as `best`
        scores a candidate. A link whose rate is 0 raises ValueError."""
        j, p = self.targets[i], self.powers[i]
        terms = self._terms(i, j, p, len(self.children[i]), self.co_target_power(j, without=i))
        if terms is None:
            raise ValueError(f"device {i} transmits to node {j} with power {p:g} at rate 0")
        profit, late_sq = terms
        ancestors, reached, cut, direct = self.structure(i)
        if j == self.ap:
            return profit, direct - late_sq
        return profit, (reached if self.reaches_ap[j] and j not in ancestors else cut) - late_sq

    def move(self, i: int, j: int, p: float) -> None:
        """Device i now transmits to node j with power p."""
        j_old = self.targets[i]
        self.targets[i], self.powers[i] = j, p
        if j != j_old:
            self._label()
            self.interference[j_old] = self.co_target_power(j_old)
        self.interference[j] = self.co_target_power(j)
        for k, touched in enumerate(self.touched):
            if k != i:
                touched.add(j_old)
                touched.add(j)

    def profile(self) -> StrategyProfile:
        """The run's current profile, as a new StrategyProfile."""
        return StrategyProfile(self.prices.copy(), self.targets, self.powers)

    def settle(self, m_schedule, max_iter: int) -> tuple[int, bool]:
        """Round-robin best responses, devices in index order,
        re-converging at each coefficient of `m_schedule`; returns the
        rounds and whether the last stage settled. A move is any change of
        a target or of any bit of a power; the `_P_TOL` test decides only
        whether a device counts as changed."""
        n = self.ap
        rounds = 0
        stable = False
        for M in m_schedule:
            stable = False
            for _ in range(max_iter):
                rounds += 1
                changed = 0
                for i in range(n):
                    j_new, p_new = self.best(i, M)
                    j_old, p_old = self.targets[i], self.powers[i]
                    if j_new != j_old or abs(p_new - p_old) > _P_TOL:
                        changed += 1
                    if j_new != j_old or p_new != p_old:
                        self.move(i, j_new, p_new)
                logger.debug("M=%g, round %d: %d of %d devices changed", M, rounds, changed, n)
                if not changed:
                    stable = True
                    break
            if not stable:
                logger.warning("dynamics did not settle within %d rounds at M=%g", max_iter, M)
        return rounds, stable

    def _gains(self, M: float) -> np.ndarray:
        """Per device, by how much its relay/power best response at M, as
        `best` ranked it, beats its current link in profit + M * rho: 0
        when the two are the same link, and never below 0."""
        gains = np.zeros(self.ap)
        for i in range(self.ap):
            j, p = self.best(i, M)
            if j != self.targets[i] or p != self.powers[i]:
                profit, rho = self.current(i)
                gains[i] = max(self.answers[i][5] - (profit + M * rho), 0.0)
        return gains


def default_init(scen: Scenario, power_grid: int = 50) -> StrategyProfile:
    """Everyone direct to the access point at the lowest grid power,
    prices at their closed-form optimum."""
    prices = np.array([price_best_response(i, scen) for i in range(scen.n_devices)])
    targets = np.full(scen.n_devices, scen.ap, dtype=int)
    return StrategyProfile(prices, targets, scen.param("p_max") / power_grid)


def unilateral_gains(
    profile: StrategyProfile,
    scen: Scenario,
    M: float,
    power_grid: int = 50,
) -> np.ndarray:
    """Best-response improvement available to each device at a profile.

    Takes the closed-form price and the relay/power best response of
    each device as its two unilateral deviations, and measures the
    penalized-profit gain of the better of the two, never below 0. The
    best response tries each relay at its least deadline power only, so
    all gains within `eps_nash` make the profile a Nash equilibrium of the
    deadline-constrained game over these deviations; a slightly late,
    cheaper relay power is not among them. The
    link deviation is scored on a run of the profile, the price deviation
    on a run with that one price moved, at the owner's demand for it. A
    deviation equal to the device's current strategy is not scored. A
    solve certifies from its own run, whose best responses are caught up
    with its last moves and equal these bit for bit.
    `profile.check_fits(scen)` runs first.
    """
    profile.check_fits(scen)
    best_prices = [price_best_response(i, scen) for i in range(scen.n_devices)]
    demand = lower_level.best_response_demand(profile.prices, scen)
    run = _Run(profile, demand, scen, power_grid)
    gains = run._gains(M)
    for i, q in enumerate(best_prices):
        if q == profile.prices[i]:
            continue
        moved = StrategyProfile(profile.prices.copy(), profile.targets, profile.powers)
        moved.prices[i] = q
        alt = _Run(moved, lower_level.best_response_demand(moved.prices, scen), scen, power_grid)
        profit, rho = run.current(i)
        alt_profit, alt_rho = alt.current(i)
        gains[i] = max(gains[i], (alt_profit + M * alt_rho) - (profit + M * rho))
    return gains


def solve_stackelberg(
    scen: Scenario,
    cfg: PenaltyConfig | None = None,
    max_iter: int = 100,
    power_grid: int = 50,
) -> EquilibriumReport:
    """Full bilevel solve: leader dynamics, then the follower response
    and owner utility at the resulting profile.

    Every device starts direct to the access point with its price at the
    closed-form optimum (`default_init`), which no round changes, and the
    owner's demand is computed once, for those prices. The dynamics run
    once over the penalty schedule; the certificate and the profits are
    scored from the run. Non-convergence is reported, never raised.
    """
    cfg = cfg or PenaltyConfig()
    start = default_init(scen, power_grid)
    demand = lower_level.best_response_demand(start.prices, scen)
    run = _Run(start, demand, scen, power_grid)
    rounds, stable = run.settle(cfg.m_schedule, max_iter)
    gain = float(run._gains(cfg.m_schedule[-1]).max(initial=0.0))
    profits = np.array([run.current(i)[0] for i in range(scen.n_devices)])
    profile = run.profile()
    rates = radio.transmission_rates(profile.targets, profile.powers, scen)
    I = routing.plan_to_indicator(profile.targets, scen.n_nodes)
    feas, violations = routing.feasible(I, demand, rates, scen, cfg.eps_feas)
    return EquilibriumReport(
        prices=profile.prices,
        targets=profile.targets,
        powers=profile.powers,
        demand=demand,
        rates=rates,
        profits=profits,
        owner_utility=lower_level.owner_utility(demand, profile.prices, scen),
        converged=stable and gain <= cfg.eps_nash and feas,
        iterations=rounds,
        max_unilateral_gain=gain,
        feasible=feas,
        violations=violations,
    )
