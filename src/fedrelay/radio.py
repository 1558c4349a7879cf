"""Interference-coupled transmission rates and energy costs.

Devices that transmit to the same relay share the channel; a device's
SINR is its received power at the relay over the other co-relay
received powers plus noise. Devices aimed at different relays do not
interfere.
"""

from __future__ import annotations

import math

import numpy as np

from .routing import indicator_from_powers, power_matrix
from .scenario import Scenario


class PowerLimitError(ValueError):
    """Required transmit power exceeds the device's bound."""

    def __init__(self, device: int, required: float, p_max: float):
        super().__init__(
            f"device {device} needs power {required:.6g} > p_max {p_max:.6g}"
        )
        self.device = device
        self.required = required
        self.p_max = p_max


def rates_from_matrix(P: np.ndarray, scen: Scenario) -> np.ndarray:
    """Per-device rates from a full power matrix.

    Numerator: own received power at the chosen relay, sum_j H_ij P_ij,
    with H the scenario's gain matrix.
    Denominator: total received power at that relay from every device
    aiming at it, minus the numerator, plus noise. The relay grouping is
    carried by the matrix products H I^T and P I^T. Devices with an
    all-zero power row transmit nothing; their rate is NaN.
    """
    P = np.asarray(P, dtype=float)
    H = scen.H
    n = scen.n_devices
    I = indicator_from_powers(P)
    HI = H @ I.T
    PI = P @ I.T
    own = np.einsum("ij,ij->i", H, P)
    at_relay = np.einsum("ji,ji->i", HI, PI)
    denom = at_relay - own + scen.sigma2
    if np.any(denom <= 0):
        raise ValueError("non-positive SINR denominator; check sigma2 and powers")
    w = scen.param("w")
    rates = w * np.log2(1.0 + own[:n] / denom[:n])
    rates[own[:n] == 0.0] = np.nan
    return rates


def transmission_rates(targets: np.ndarray, powers: np.ndarray, scen: Scenario) -> np.ndarray:
    """Rates for a one-link-per-device assignment."""
    P = power_matrix(targets, powers, scen.n_nodes)
    return rates_from_matrix(P, scen)


def transmission_rate(i: int, targets: np.ndarray, powers: np.ndarray, scen: Scenario) -> float:
    """Rate of a single device; the device must actually transmit."""
    if not powers[i] > 0:
        raise ValueError(f"device {i} has no positive transmit power")
    return float(transmission_rates(targets, powers, scen)[i])


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
    gain = scen.H[i, target]
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
