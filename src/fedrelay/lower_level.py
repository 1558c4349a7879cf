"""The model owner's side of the game: accuracy value, utility, and the
closed-form demand response to posted prices.

The owner buys training data from each device at the posted per-unit
price. Its utility is the summed accuracy value of the purchased data
minus the payments; both are separable across devices, so the optimal
demand decouples into one scalar problem per device with a log-form
solution.
"""

from __future__ import annotations

import math

import numpy as np

from .scenario import Scenario, price_floor

__all__ = [
    "accuracy_vector",
    "owner_utility",
    "best_response_demand",
    "price_floor",
]


def accuracy_vector(s: np.ndarray, scen: Scenario) -> np.ndarray:
    """Accuracy of each device's update trained on s[i] data units, by
    `math.exp` per device, so it is the same on every CPU."""
    s = np.asarray(s, dtype=float).tolist()
    return np.array([
        d.accuracy.a - d.accuracy.b * math.exp(-d.accuracy.c * x)
        for d, x in zip(scen.devices, s, strict=True)
    ])


def owner_utility(s: np.ndarray, q: np.ndarray, scen: Scenario) -> float:
    """Total accuracy value minus total payment, sum_i [f_i(s_i) - q_i s_i]."""
    s = np.asarray(s, dtype=float)
    q = np.asarray(q, dtype=float)
    if s.shape != q.shape:
        raise ValueError(f"shape mismatch: demand {s.shape} vs prices {q.shape}")
    return float(np.sum(accuracy_vector(s, scen) - q * s))


def best_response_demand(q: np.ndarray, scen: Scenario) -> np.ndarray:
    """Owner's optimal demand for posted prices, clamped to [0, s_max].

    Interior values satisfy the stationarity condition
    q_i = c_i * b_i * exp(-c_i * s_i); prices at or above c_i * b_i shut
    the purchase off entirely. Computed by `math.log` per device, so it is
    the same on every CPU; a price vector of the wrong length raises
    ValueError.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q <= 0):
        raise ValueError("prices must be strictly positive")
    s = []
    for d, q_i in zip(scen.devices, q.tolist(), strict=True):
        c = d.accuracy.c
        cb = c * d.accuracy.b
        s.append(min(math.log(cb / q_i) / c, d.s_max) if q_i < cb else 0.0)
    return np.array(s)

