"""Interference-coupled transmission rates and energy costs.

Devices that transmit to the same relay share the channel; a device's
SINR is its received power at the relay over the other co-relay
received powers plus noise. Devices aimed at different relays do not
interfere. Rates are computed from the next-hop vector: the co-relay
received powers are summed per target node, in ascending device order.
"""

from __future__ import annotations

import math

import numpy as np

from .scenario import Scenario


class PowerLimitError(ValueError):
    """Required transmit power exceeds the device's bound.

    The solver raises one for every unmeetable deadline and catches it,
    so the message is formatted only when asked for.
    """

    def __init__(self, device: int, required: float, p_max: float):
        super().__init__(device, required, p_max)
        self.device = device
        self.required = required
        self.p_max = p_max

    def __str__(self) -> str:
        return f"device {self.device} needs power {self.required:.6g} > p_max {self.p_max:.6g}"


def transmission_rates(targets: np.ndarray, powers: np.ndarray, scen: Scenario) -> np.ndarray:
    """Per-device rates of a next-hop assignment: device k sends to
    targets[k] with power powers[k] >= 0.

    Numerator: own received power H[k, targets[k]] * powers[k], with H
    the scenario's gain matrix. Denominator: the received powers at that
    target of the other devices aiming at it, summed from zero in
    ascending device order, plus noise. The rate is w * log2(1 + SINR)
    by `math.log2`, the arithmetic of the solver's link terms, so a rate
    is the same on every CPU. A device with zero received power
    transmits nothing; its rate is NaN.
    """
    targets = np.asarray(targets, dtype=int)
    powers = np.asarray(powers, dtype=float)
    if np.any(powers < 0):
        raise ValueError("powers must be nonnegative")
    own = (scen.H[np.arange(scen.n_devices), targets] * powers).tolist()
    targets = targets.tolist()
    rates = np.full(scen.n_devices, np.nan)
    for i, (d, j) in enumerate(zip(scen.devices, targets)):
        interference = 0.0
        for k, t in enumerate(targets):
            if t == j and k != i:
                interference += own[k]
        if own[i] != 0.0:
            rates[i] = d.w * math.log2(1.0 + own[i] / (interference + scen.sigma2))
    return rates


def transmission_energy_cost(
    i: int, powers: np.ndarray, rates: np.ndarray, scen: Scenario
) -> float:
    """Energy cost of shipping one update: c_t * (I_d / rate) * power,
    with `powers` the per-device power vector."""
    p = float(powers[i])
    if p == 0.0:
        return 0.0
    r = float(rates[i])
    if not r > 0:
        raise ValueError(f"device {i} transmits with non-positive rate {r}")
    return scen.devices[i].c_t * (scen.I_d / r) * p


def min_power_for_rate(
    i: int,
    target: int,
    target_rate: float,
    interference: float,
    scen: Scenario,
) -> float:
    """Smallest power at which device i hits `target_rate` toward `target`.

    `interference` is the total received power at the target from the
    co-aiming devices, held fixed at the current iterate. Raises
    PowerLimitError when the requirement exceeds the device's bound.
    """
    if not target_rate > 0:
        raise ValueError(f"target rate must be > 0, got {target_rate}")
    gain = float(scen.H[i, target])  # a numpy scalar would warn where the power overflows to inf
    if not gain > 0:
        raise ValueError(f"no channel gain from device {i} to node {target}")
    d = scen.devices[i]
    exponent = float(target_rate) / d.w
    if exponent > 1000.0:  # beyond any representable power requirement
        raise PowerLimitError(i, math.inf, d.p_max)
    required = (2.0**exponent - 1.0) * (interference + scen.sigma2) / gain
    if required > d.p_max:
        raise PowerLimitError(i, required, d.p_max)
    return float(required)
